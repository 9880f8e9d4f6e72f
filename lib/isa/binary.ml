open Insn

type t = {
  arch : arch;
  profile : string;
  opt_label : string;
  text : string;
  data : string;
  data_words : int array;
  symbols : (string * int * int) array;
  functions : (string * int * int) array;
  entry : int;
  ret_reg : int;
}

type bblock = {
  b_addr : int;
  b_insns : (int * insn) list;
  b_succs : int list;
}

type bfunc = {
  f_name : string;
  f_id : int;
  f_addr : int;
  f_insns : (int * insn) list;
  f_blocks : bblock list;
  f_calls : int list;
}

(* Little-endian, 8 bytes a word; [Int64.of_int] sign-extends the
   63-bit word into the top byte. *)
let serialize_data words =
  let b = Bytes.create (Array.length words * 8) in
  Array.iteri (fun i v -> Bytes.set_int64_le b (8 * i) (Int64.of_int v)) words;
  Bytes.unsafe_to_string b

let size t = String.length t.text + String.length t.data

let code_of_function t fid =
  let _, addr, len = t.functions.(fid) in
  String.sub t.text addr len

(* Control transfers out of an instruction, as (targets, falls_through). *)
let flow insn ~next =
  match insn with
  | Ijmp target -> ([ target ], false)
  | Ijcc (_, target) -> ([ target; next ], false)
  | Iloop (r, target) ->
    ignore r;
    ([ target; next ], false)
  | Ijtab (_, targets) -> (targets, false)
  | Iret -> ([], false)
  | Ijmpf _ -> ([], false)
  | Imov _ | Ialu _ | Ineg _ | Inot _ | Icmp _ | Itest _ | Isetcc _
  | Icmov _ | Ild _ | Ist _ | Ildf _ | Istf _ | Ipush _ | Ipop _ | Icall _
  | Icallr _ | Ila _ | Ivld _ | Ivst _ | Ivalu _ | Ivsplat _ | Ivpack _
  | Ivred _ | Ivldf _ | Ivstf _ | Iprint _ | Iprintc _ | Iread _ | Ilen _
  | Inop | Iinc _ | Idec _ | Ixorz _ ->
    ([ next ], true)

let analyze_function t fid =
  let name, addr, len = t.functions.(fid) in
  let stop = addr + len in
  (* linear sweep *)
  let insns = ref [] in
  let pos = ref addr in
  while !pos < stop do
    let i, next = Codec.decode t.arch t.text ~pos:!pos in
    insns := (!pos, i) :: !insns;
    pos := next
  done;
  let insns = List.rev !insns in
  (* leaders: entry, targets of control transfers, fallthroughs after
     non-sequential instructions *)
  let leaders = Hashtbl.create 16 in
  Hashtbl.replace leaders addr ();
  let next_of =
    (* map from insn addr to next insn addr *)
    let tbl = Hashtbl.create 64 in
    let rec fill = function
      | (a, _) :: ((b, _) :: _ as rest) ->
        Hashtbl.replace tbl a b;
        fill rest
      | [ (a, _) ] -> Hashtbl.replace tbl a stop
      | [] -> ()
    in
    fill insns;
    tbl
  in
  List.iter
    (fun (a, i) ->
      let next = try Hashtbl.find next_of a with Not_found -> stop in
      let targets, falls = flow i ~next in
      match i with
      | Ijmp _ | Ijcc _ | Iloop _ | Ijtab _ | Iret | Ijmpf _ ->
        List.iter
          (fun tgt -> if tgt >= addr && tgt < stop then Hashtbl.replace leaders tgt ())
          targets;
        if next < stop then Hashtbl.replace leaders next ()
      | _ -> ignore falls)
    insns;
  (* split into blocks *)
  let blocks = ref [] in
  let rec walk insns cur cur_addr =
    match insns with
    | [] ->
      if cur <> [] then
        blocks :=
          { b_addr = cur_addr; b_insns = List.rev cur; b_succs = [] }
          :: !blocks
    | (a, i) :: rest ->
      let is_leader = a <> cur_addr && Hashtbl.mem leaders a in
      if is_leader && cur <> [] then begin
        (* close the current block: falls through to a *)
        blocks :=
          { b_addr = cur_addr; b_insns = List.rev cur; b_succs = [ a ] }
          :: !blocks;
        walk ((a, i) :: rest) [] a
      end
      else begin
        let next = try Hashtbl.find next_of a with Not_found -> stop in
        let targets, _ = flow i ~next in
        let ends_block =
          match i with
          | Ijmp _ | Ijcc _ | Iloop _ | Ijtab _ | Iret | Ijmpf _ -> true
          | _ -> false
        in
        if ends_block then begin
          let succs =
            List.sort_uniq compare
              (List.filter (fun tg -> tg >= addr && tg < stop) targets)
          in
          blocks :=
            { b_addr = cur_addr; b_insns = List.rev ((a, i) :: cur); b_succs = succs }
            :: !blocks;
          walk rest [] next
        end
        else walk rest ((a, i) :: cur) cur_addr
      end
  in
  walk insns [] addr;
  let f_blocks =
    List.sort (fun a b -> compare a.b_addr b.b_addr) !blocks
    |> List.filter (fun b -> b.b_insns <> [])
  in
  let f_calls =
    List.filter_map
      (fun (_, i) ->
        match i with
        | Icall fid | Ila (_, fid) | Ijmpf fid -> Some fid
        | _ -> None)
      insns
    |> List.sort_uniq compare
  in
  { f_name = name; f_id = fid; f_addr = addr; f_insns = insns; f_blocks; f_calls }

let analyze t =
  Telemetry.with_span
    ~attrs:
      [
        ("arch", Insn.arch_name t.arch);
        ("functions", string_of_int (Array.length t.functions));
      ]
    "isa.binary.analyze"
    (fun () ->
      Telemetry.add_count "isa.binary.analyze";
      List.init (Array.length t.functions) (fun fid -> analyze_function t fid))
