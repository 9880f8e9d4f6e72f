(* Named fitness axes and their scalarization (ROADMAP item #1).

   An objective spec is an ordered list of (axis, weight) pairs — the
   axis order fixes the meaning of every fitness vector that flows
   through {!Engine.run}, the Pareto archive, the tuner database and
   BENCH_pareto.json.  All axes are maximized:

   - [ncd]      binary difference against the caller's baseline (the
                paper's objective); injected, because the LZ machinery
                and the baseline live with the tuner;
   - [gadgets]  negated code-reuse gadget census size (Brown et al.,
                "Not So Fast"): fewer unique gadget tails is better;
   - [size]     negated binary size in bytes;
   - [evasion]  provenance-classifier evasion (BinPro adversary):
                the classifier's distance to its nearest preset
                centroid; injected, because the trained model is the
                caller's.

   The static axes ([gadgets], [size]) are computed from one shared
   {!Binsight.Report.inspect} call per distinct binary, memoized in a
   content-addressed [Util.Lru]; the injected axes
   get their own per-axis memos so re-proposed genomes never re-pay
   classification or compression. *)

type axis = Ncd | Gadgets | Size | Evasion

let all_axes = [ Ncd; Gadgets; Size; Evasion ]

let axis_name = function
  | Ncd -> "ncd"
  | Gadgets -> "gadgets"
  | Size -> "size"
  | Evasion -> "evasion"

let axis_of_name = function
  | "ncd" -> Ncd
  | "gadgets" -> Gadgets
  | "size" -> Size
  | "evasion" -> Evasion
  | other ->
    invalid_arg
      (Printf.sprintf "Objective: unknown axis %S (expected %s)" other
         (String.concat "|" (List.map axis_name all_axes)))

type spec = (axis * float) list

let default : spec = [ (Ncd, 1.0) ]

let names spec = List.map (fun (a, _) -> axis_name a) spec
let arity = List.length

(* The paper's original problem: one NCD axis at unit weight.  This is
   the case every scalar bit-identity sentinel runs through. *)
let is_scalar_ncd = function [ (Ncd, w) ] -> w = 1.0 | _ -> false

(* "ncd,gadgets:0.5,size" — comma-separated axes, each optionally
   weighted with [:w].  Duplicate axes and non-positive weights are
   rejected; an empty spec is rejected. *)
let parse s =
  let parts =
    List.filter (fun p -> p <> "") (String.split_on_char ',' (String.trim s))
  in
  if parts = [] then invalid_arg "Objective.parse: empty objective spec";
  let parse_one p =
    match String.index_opt p ':' with
    | None -> (axis_of_name (String.trim p), 1.0)
    | Some i ->
      let name = String.trim (String.sub p 0 i) in
      let w = String.trim (String.sub p (i + 1) (String.length p - i - 1)) in
      let w =
        match float_of_string_opt w with
        | Some w when w > 0.0 && w = w (* not nan *) -> w
        | _ ->
          invalid_arg
            (Printf.sprintf
               "Objective.parse: bad weight %S for axis %S (want a \
                positive float)"
               w name)
      in
      (axis_of_name name, w)
  in
  let spec = List.map parse_one parts in
  let seen = Hashtbl.create 4 in
  List.iter
    (fun (a, _) ->
      if Hashtbl.mem seen a then
        invalid_arg
          (Printf.sprintf "Objective.parse: duplicate axis %S" (axis_name a));
      Hashtbl.replace seen a ())
    spec;
  spec

let to_string spec =
  String.concat ","
    (List.map
       (fun (a, w) ->
         if w = 1.0 then axis_name a
         else Printf.sprintf "%s:%g" (axis_name a) w)
       spec)

(* Weighted-sum scalarization.  The 1-axis unit-weight case returns the
   single component unchanged — [1.0 *. f] is [f] in IEEE, but keeping
   it literal makes the scalar path's bit-identity self-evident — and
   the general case folds from the first term (never from [0.0], which
   would lose the sign of [-0.0]). *)
let scalarize spec =
  match spec with
  | [] -> invalid_arg "Objective.scalarize: empty spec"
  | [ (_, w) ] when w = 1.0 -> fun (v : float array) -> v.(0)
  | axes ->
    let ws = Array.of_list (List.map snd axes) in
    fun (v : float array) ->
      if Array.length v <> Array.length ws then
        invalid_arg "Objective.scalarize: fitness arity mismatch";
      let acc = ref (ws.(0) *. v.(0)) in
      for i = 1 to Array.length ws - 1 do
        acc := !acc +. (ws.(i) *. v.(i))
      done;
      !acc

(* --- per-axis memos ------------------------------------------------- *)

(* Content-addressed LRUs bounded in entries.  Axis evaluation is
   deterministic per binary, so keep-first on a racing duplicate is
   exact. *)
let memo capacity =
  Util.Lru.create ~name:"objective.memo" ~budget:(max 1 capacity)
    ~weight:(fun _ _ -> 1)
    ()

let digest (bin : Isa.Binary.t) =
  Digest.string bin.Isa.Binary.text ^ Digest.string bin.Isa.Binary.data

(* --- the evaluator -------------------------------------------------- *)

type evaluator = {
  spec : spec;
  eval_axes : (Isa.Binary.t -> float) array;  (** one per spec axis *)
  memos : (string * float Util.Lru.t) list;  (** (axis name, memo) *)
  inspect_memo : (float * float) Util.Lru.t;
      (** digest -> (gadgets, size): both static axes off one inspect *)
}

let default_capacity = 512

let evaluator ?(gadget_k = Binsight.Gadgets.default_k)
    ?(capacity = default_capacity) ?ncd ?evasion spec =
  if spec = [] then invalid_arg "Objective.evaluator: empty spec";
  let inspect_memo = memo capacity in
  let statics bin =
    Util.Lru.find_or_add inspect_memo (digest bin) (fun () ->
        let r =
          Telemetry.with_span "objective.inspect" (fun () ->
              Binsight.Report.inspect ~gadget_k bin)
        in
        let census = r.Binsight.Report.r_gadgets in
        ( -.float_of_int (List.length census.Binsight.Gadgets.c_unique),
          -.float_of_int (Isa.Binary.size bin) ))
  in
  let injected name hook memo =
    match hook with
    | Some f ->
      fun bin -> Util.Lru.find_or_add memo (digest bin) (fun () -> f bin)
    | None ->
      invalid_arg
        (Printf.sprintf
           "Objective.evaluator: the %S axis needs an evaluation hook \
            (it depends on caller state: a baseline binary or a trained \
            classifier)"
           name)
  in
  let memos = ref [] in
  let eval_of_axis = function
    | Gadgets -> fun bin -> fst (statics bin)
    | Size -> fun bin -> snd (statics bin)
    | Ncd ->
      let m = memo capacity in
      memos := ("ncd", m) :: !memos;
      injected "ncd" ncd m
    | Evasion ->
      let m = memo capacity in
      memos := ("evasion", m) :: !memos;
      injected "evasion" evasion m
  in
  let eval_axes = Array.of_list (List.map (fun (a, _) -> eval_of_axis a) spec) in
  { spec; eval_axes; memos = List.rev !memos; inspect_memo }

let evaluate ev bin = Array.map (fun f -> f bin) ev.eval_axes

(* (memo name, hits, misses) for every memo the evaluator owns — the
   tuner folds these into its cache counters. *)
let memo_counts ev =
  let counts name (s : Util.Lru.stats) = (name, s.hits, s.misses) in
  counts "inspect" (Util.Lru.stats ev.inspect_memo)
  :: List.map (fun (name, m) -> counts name (Util.Lru.stats m)) ev.memos
