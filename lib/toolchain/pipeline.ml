module AO = Passes.Ast_opt
module IO = Passes.Ir_opt
module C = Passes.Cleanup

(* [tpass] times one whole-program AST pass; [fpass] times one IR pass
   over one function.  Both are plain pass-throughs when the global
   telemetry instance is disabled (the default). *)
let tpass name f ast = Telemetry.with_span ("pass." ^ name) (fun () -> f ast)

let fpass name f func =
  Telemetry.with_span ("pass." ^ name) (fun () -> f func)

(* --- IR verification gate (CLI --verify-ir, bench -verify) --- *)

let verify_default = ref false

exception Verification_failed of string

(* Test-only: after the named pass runs on a function, apply the mutation.
   Lets the test suite plant a miscompile inside a specific pass and assert
   the verifier attributes the failure to that pass name. *)
let test_break : (string * (Vir.Ir.func -> unit)) option ref = ref None

let verify_failed ~pass ~where detail =
  raise
    (Verification_failed
       (Printf.sprintf "IR verification failed after pass '%s'%s:\n%s" pass
          where detail))

let check_program ~verify ~where pass ir =
  if verify then
    Telemetry.with_span "verify.ir" (fun () ->
        match Analysis.Verifier.verify_program ir with
        | [] -> ()
        | errs ->
          verify_failed ~pass ~where (Analysis.Verifier.errors_to_string errs))

let check_func ~verify ~where pass ir f =
  (match !test_break with
  | Some (name, mutate) when name = pass -> mutate f
  | Some _ | None -> ());
  if verify then
    Telemetry.with_span "verify.ir" (fun () ->
        match Analysis.Verifier.verify_func ir f with
        | [] -> ()
        | errs ->
          verify_failed ~pass ~where (Analysis.Verifier.errors_to_string errs))

(* --- the incremental-compilation seam --- *)

type snapshot_store = {
  find : string -> string option;
  store : string -> string -> unit;
}

(* One IR pass over one function.  IR passes take no parameters, so the
   name is the step's identity.  A pass reads and writes only the
   function it is handed, so its effect is a pure function of (function
   state, name): that is what the per-function memo below keys on. *)
type ir_step = {
  name : string;
  pass : Vir.Ir.func -> unit;
}

(* The configuration, flattened: the front end (AST passes in their fixed
   order, then lowering — identified together by [front_keys]), each
   enabled IR pass, and the program-level function reorder.  Codegen is
   not part of the plan; {!compile} keys it separately because its
   inputs (arch, codegen options, function order) are not IR. *)
type plan = {
  front_keys : string list;
  front : Minic.Ast.program -> Vir.Ir.program;
  ir_steps : ir_step list;
  reorder : bool;
}

let plan ~verify ~where (cfg : Config.t) : plan =
  let ast_steps = ref [] and ir_steps = ref [] in
  let ast_step name skey f = ast_steps := (skey, tpass name f) :: !ast_steps in
  let ir_step name pass = ir_steps := { name; pass } :: !ir_steps in
  (* --- AST-level, in a fixed canonical order --- *)
  if cfg.instrument then ast_step "instrument" "instrument" AO.instrument;
  if cfg.inline_small || cfg.inline_big || cfg.expand_builtins then
    ast_step "normalize_calls" "normalize_calls" AO.normalize_calls;
  if cfg.expand_builtins then
    ast_step "expand_builtins" "expand_builtins" AO.expand_builtins;
  if cfg.inline_big then
    ast_step "inline"
      (Printf.sprintf "inline:%d:%d" cfg.inline_big_threshold cfg.inline_rounds)
      (AO.inline ~max_size:cfg.inline_big_threshold ~rounds:cfg.inline_rounds)
  else if cfg.inline_small then
    ast_step "inline"
      (Printf.sprintf "inline:%d:%d" cfg.inline_small_threshold
         cfg.inline_rounds)
      (AO.inline ~max_size:cfg.inline_small_threshold ~rounds:cfg.inline_rounds);
  if cfg.unswitch then ast_step "unswitch" "unswitch" AO.unswitch;
  if cfg.distribute then ast_step "distribute" "distribute" AO.distribute;
  if cfg.unroll_and_jam then
    ast_step "unroll_and_jam" "unroll_and_jam" AO.unroll_and_jam;
  if cfg.unroll then
    ast_step "unroll"
      (Printf.sprintf "unroll:%d:%d" cfg.unroll_factor cfg.full_unroll_limit)
      (AO.unroll ~factor:cfg.unroll_factor ~full_limit:cfg.full_unroll_limit);
  if cfg.peel then ast_step "peel" "peel" AO.peel;
  (* --- IR-level --- *)
  (* even -O0 emits structurally merged straight-line code: trivial
     jump chains from lowering never survive a real compiler *)
  ir_step "simplify_cfg" C.simplify_cfg;
  if cfg.baseline then ir_step "baseline" C.run_baseline;
  if cfg.sccp then ir_step "sccp" Passes.Sccp.run;
  if cfg.strength_reduce then begin
    ir_step "strength_reduce" IO.strength_reduce;
    if cfg.baseline then begin
      ir_step "lvn" C.lvn;
      ir_step "dce" C.dce
    end
  end;
  if cfg.licm then ir_step "licm" IO.licm;
  if cfg.aggressive_licm then ir_step "licm_dom" Passes.Licm_dom.run;
  if cfg.gvn then ir_step "gvn" Passes.Gvn.run;
  if cfg.if_convert then ir_step "if_convert" IO.if_convert;
  if cfg.slp then ir_step "slp_vectorize" IO.slp_vectorize;
  if cfg.extra_lvn then begin
    ir_step "lvn" C.lvn;
    ir_step "dce" C.dce
  end;
  if cfg.tail_call then ir_step "tail_call" IO.tail_call;
  if cfg.branch_count_reg then ir_step "branch_count_reg" IO.branch_count_reg;
  if cfg.reorder_blocks then ir_step "reorder_blocks" IO.reorder_blocks;
  if cfg.partition then ir_step "partition" IO.partition_blocks;
  if cfg.if_convert_late then ir_step "if_convert_late" IO.if_convert;
  if cfg.late_cleanup && cfg.baseline then
    ir_step "late_cleanup" C.run_baseline;
  let ast_steps = List.rev !ast_steps in
  let lower_options =
    {
      Vir.Lower.merge_conditionals = cfg.merge_conditionals;
      vectorize = cfg.vectorize;
    }
  in
  let front ast =
    let ast = List.fold_left (fun a (_, run) -> run a) ast ast_steps in
    let ir =
      Telemetry.with_span "pass.lower" (fun () ->
          Vir.Lower.lower_program ~options:lower_options ast)
    in
    check_program ~verify ~where "lower" ir;
    ir
  in
  {
    front_keys =
      List.map fst ast_steps
      @ [ Printf.sprintf "lower:%b:%b" cfg.merge_conditionals cfg.vectorize ];
    front;
    ir_steps = List.rev !ir_steps;
    reorder = cfg.reorder_functions;
  }

let finish ~verify ~where plan ir =
  if plan.reorder then begin
    Telemetry.with_span "pass.reorder_functions" (fun () ->
        IO.reorder_functions ir);
    check_program ~verify ~where "reorder_functions" ir
  end;
  ir

(* The whole plan from source, pass-major: each IR pass runs over every
   function (verified after each, when on) before the next pass starts. *)
let run_scratch ~verify ~where plan ast =
  let ir = plan.front ast in
  List.iter
    (fun s ->
      List.iter
        (fun f ->
          fpass s.name s.pass f;
          check_func ~verify ~where s.name ir f)
        ir.Vir.Ir.funcs)
    plan.ir_steps;
  finish ~verify ~where plan ir

(* --- the per-function memo --- *)

(* The per-AST digest is a 1-slot physical-equality cache per domain: the
   tuner compiles the same AST value thousands of times, and marshaling
   it once per compile just to rediscover the same digest would tax the
   warm path the memo exists to shorten. *)
let ast_digest_slot : (Minic.Ast.program * string) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let program_digest (ast : Minic.Ast.program) =
  let slot = Domain.DLS.get ast_digest_slot in
  match !slot with
  | Some (a, d) when a == ast -> d
  | _ ->
    let d = Digest.string (Marshal.to_string ast []) in
    slot := Some (ast, d);
    d

(* The seed carries what the content-addressed keys do not: the program
   itself, the profile, and the target arch.  It heads the lowered-index
   key and the codegen keys, so two contexts never share a lowered index
   or a function's selected code.  IR transitions need no seed: an IR
   pass sees neither profile nor arch. *)
let cache_seed ~profile ~arch ast =
  Digest.string
    (program_digest ast ^ "|" ^ profile ^ "|" ^ Isa.Insn.arch_name arch)

(* Five kinds of entry share the store, told apart by a tag:
   - [ix|K]: the lowered program under the front-end chain key K — its
     globals and the digest of each lowered function, in order;
   - [fn|D]: a function state, marshaled without sharing, so that its
     digest D names its structure and nothing else;
   - [tr|D N]: the digest of the state IR step [N] makes of state [D];
   - [cg|C D]: the selected, register-allocated code of state [D] in the
     codegen context [C] (seed, options, function and global order);
   - [bin|P]: the emitted binary of a whole compile, under a digest of
     the seed, the plan's step keys, the label and the codegen options,
     so an exact repeat (a preset re-score, two vectors that resolve to
     one configuration) skips the pipeline entirely. *)
let index_key k = "ix|" ^ k
let state_key d = "fn|" ^ d
let transition_key d name = "tr|" ^ d ^ name
let code_key ctx d = "cg|" ^ ctx ^ d

let binary_key ~seed plan ~opt_label codegen_digest =
  "bin|"
  ^ Digest.string
      (String.concat "|"
         ((seed :: plan.front_keys)
         @ List.map (fun s -> s.name) plan.ir_steps
         @ [ string_of_bool plan.reorder; opt_label; codegen_digest ]))

let is_codegen_key = String.starts_with ~prefix:"cg|"

(* A memoized compile needs a function state the store no longer holds. *)
exception Evicted

(* Marshal a function state and publish it under its digest, unless it is
   the state [unchanged] that the store already names. *)
let publish store ?unchanged f =
  Telemetry.with_span "pipeline.fn_store" (fun () ->
      let s = Marshal.to_string (f : Vir.Ir.func) [ Marshal.No_sharing ] in
      let d = Digest.string s in
      if unchanged <> Some d then store.store (state_key d) s;
      d)

let restore store d : Vir.Ir.func =
  match store.find (state_key d) with
  | Some s -> Marshal.from_string s 0
  | None -> raise Evicted

(* Run the plan through the memo.  Each function walks the IR steps as a
   chain of state digests: a known transition advances the digest
   without touching the function; an unknown one materializes the state
   (kept from the last step when possible, else restored from the store),
   runs the pass and publishes the result.  Every function is
   materialized once more at the end.  Returns the program and each
   function's final digest by name. *)
let run_memo store ~seed plan ast =
  let front_key =
    List.fold_left (fun k s -> Digest.string (k ^ "|" ^ s)) seed plan.front_keys
  in
  let globals, lowered =
    match store.find (index_key front_key) with
    | Some s ->
      let globals, digests =
        (Marshal.from_string s 0
          : (string * Vir.Ir.global_init) list * string list)
      in
      (globals, List.map (fun d -> (d, None)) digests)
    | None ->
      let ir = plan.front ast in
      let lowered = List.map (fun f -> (publish store f, Some f)) ir.funcs in
      store.store (index_key front_key)
        (Marshal.to_string (ir.globals, List.map fst lowered) []);
      (ir.globals, lowered)
  in
  (* counted per compile: a traced compile looks up hundreds of
     transitions *)
  let hits = ref 0 and misses = ref 0 in
  let advance (d, live) s =
    let tkey = transition_key d s.name in
    match store.find tkey with
    | Some d' ->
      incr hits;
      (d', if d' = d then live else None)
    | None ->
      incr misses;
      let f = match live with Some f -> f | None -> restore store d in
      fpass s.name s.pass f;
      let d' = publish store ~unchanged:d f in
      store.store tkey d';
      (d', Some f)
  in
  let finals =
    Fun.protect
      ~finally:(fun () ->
        Telemetry.add_count ~by:!hits "pipeline.fn.hit";
        Telemetry.add_count ~by:!misses "pipeline.fn.miss")
      (fun () ->
        List.map (fun st -> List.fold_left advance st plan.ir_steps) lowered)
  in
  let funcs =
    List.map
      (fun (d, live) -> match live with Some f -> f | None -> restore store d)
      finals
  in
  let digests = Hashtbl.create 16 in
  List.iter2
    (fun (f : Vir.Ir.func) (d, _) -> Hashtbl.replace digests f.fname d)
    funcs finals;
  let ir = finish ~verify:false ~where:"" plan { Vir.Ir.globals; funcs } in
  (ir, Hashtbl.find digests)

(* A verified compile, or one with a planted break, neither reads nor
   writes the store: it runs every step from source, so the verifier and
   the break see every pass. *)
let usable_store ~verify snapshot =
  if verify || !test_break <> None then None else snapshot

(* The plan through the store when there is one; a memoized compile that
   finds a needed state evicted runs from source too.  The digest map is
   [None] whenever the memo did not produce the program. *)
let run_plan ~verify ~where ?snapshot ~seed plan ast =
  match usable_store ~verify snapshot with
  | Some store -> (
    match run_memo store ~seed plan ast with
    | ir, digest_of -> (ir, Some digest_of)
    | exception Evicted ->
      Telemetry.add_count "pipeline.fn.evicted";
      (run_scratch ~verify ~where plan ast, None))
  | None -> (run_scratch ~verify ~where plan ast, None)

let apply_passes ?verify ?(where = "") ?snapshot ?cache_seed:seed
    (cfg : Config.t) (ast : Minic.Ast.program) : Vir.Ir.program =
  let verify = match verify with Some v -> v | None -> !verify_default in
  let seed =
    match seed with
    | Some s -> s
    | None when snapshot = None -> ""
    | None -> Digest.string (program_digest ast ^ "|anon")
  in
  fst (run_plan ~verify ~where ?snapshot ~seed (plan ~verify ~where cfg) ast)

let codegen_options_digest config =
  Digest.string (Marshal.to_string (Config.codegen_options config) [])

(* The codegen memo of one compile: a function's selected code depends on
   its final state, the codegen options and arch, and the order of the
   program's functions and globals (call and data references are
   indices). *)
let code_cache store ~seed ~codegen_digest (ir : Vir.Ir.program) digest_of =
  let ctx =
    Digest.string
      (seed ^ "|" ^ codegen_digest ^ "|"
      ^ Marshal.to_string
          ( List.map (fun (f : Vir.Ir.func) -> f.fname) ir.funcs,
            List.map fst ir.globals )
          [])
  in
  let key name = code_key ctx (digest_of name) in
  {
    Codegen.Emit.find =
      (fun name ->
        let r = store.find (key name) in
        Telemetry.add_count
          (if r = None then "codegen.fn.miss" else "codegen.fn.hit");
        r);
    store = (fun name code -> store.store (key name) code);
  }

let compile ?(config = Config.o0) ?verify ?(flag_desc = "") ?snapshot
    ?boundaries ~arch ~profile ~opt_label ast =
  Telemetry.with_span
    ~attrs:
      [
        ("profile", profile);
        ("arch", Isa.Insn.arch_name arch);
        ("opt", opt_label);
      ]
    "compile"
    (fun () ->
      let verify = match verify with Some v -> v | None -> !verify_default in
      let where =
        Printf.sprintf " [profile=%s arch=%s opt=%s%s]" profile
          (Isa.Insn.arch_name arch) opt_label flag_desc
      in
      let seed =
        match snapshot with
        | Some _ -> cache_seed ~profile ~arch ast
        | None -> ""
      in
      let plan = plan ~verify ~where config in
      let codegen_digest = codegen_options_digest config in
      let build () =
        let ir, digest_of = run_plan ~verify ~where ?snapshot ~seed plan ast in
        (* a boundary-oracle build selects every function afresh, so the
           ground truth never comes from the memo *)
        let code_cache =
          match (snapshot, digest_of, boundaries) with
          | Some store, Some digest_of, None ->
            Some (code_cache store ~seed ~codegen_digest ir digest_of)
          | _ -> None
        in
        Telemetry.with_span "pass.codegen" (fun () ->
            Codegen.Emit.compile_program
              ~options:(Config.codegen_options config)
              ?boundaries ?code_cache ~arch ~profile ~opt_label ir)
      in
      match (usable_store ~verify snapshot, boundaries) with
      | Some store, None -> (
        let key = binary_key ~seed plan ~opt_label codegen_digest in
        match store.find key with
        | Some b -> (Marshal.from_string b 0 : Isa.Binary.t)
        | None ->
          let bin = build () in
          store.store key (Marshal.to_string bin []);
          bin)
      | _ -> build ())

let flag_vector_desc vector =
  " flags="
  ^ String.concat ""
      (List.map (fun b -> if b then "1" else "0") (Array.to_list vector))

let compile_flags p ?(arch = Isa.Insn.X86_64) ?snapshot ?boundaries vector ast
    =
  let config = Flags.resolve p vector in
  compile ~config ~flag_desc:(flag_vector_desc vector) ?snapshot ?boundaries
    ~arch ~profile:p.Flags.profile_name ~opt_label:"custom" ast

let compile_preset p ?(arch = Isa.Insn.X86_64) ?snapshot ?boundaries name ast =
  match name with
  | "O0" ->
    compile ~config:Config.o0 ?snapshot ?boundaries ~arch
      ~profile:p.Flags.profile_name ~opt_label:"-O0" ast
  | _ -> (
    match Flags.preset p name with
    | Some vector ->
      let config = Flags.resolve p vector in
      compile ~config ~flag_desc:(flag_vector_desc vector) ?snapshot
        ?boundaries ~arch ~profile:p.Flags.profile_name
        ~opt_label:("-" ^ name) ast
    | None -> invalid_arg ("Pipeline.compile_preset: unknown preset " ^ name))
