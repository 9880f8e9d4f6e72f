(** The compiler driver: MinC source/AST + configuration → VX binary.

    This is BinTuner's "Compiler Interface" (§4.1): it glues the frontend,
    the flag-gated pass pipeline and the code generator, and is what the
    genetic algorithm invokes once per individual per generation.

    The pipeline is an explicit plan — AST passes and lowering (the front
    end), each enabled IR pass, the program-level function reorder — and
    it can run through an injected {!snapshot_store}, which then holds a
    content-addressed memo per function:
    - the lowered program, under a chain key of (program digest, profile,
      arch) and the front end's step keys: its globals and one digest per
      lowered function;
    - each function state, once, under the digest of its marshaled form;
    - each IR-step transition, (state digest, step key) → result digest;
    - each function's selected and register-allocated code, under its
      final digest and the codegen context;
    - each emitted binary, under the configuration's full identity, so
      an exact repeat skips the pipeline.
    A compile follows each function's chain of digests and runs a pass
    only on a transition the store has never seen, so a flag vector one
    bit away from a compiled one recompiles only the functions that bit
    changes.  The store is a plain record of closures: the pipeline stays
    agnostic of the cache policy (see [Bintuner.Incremental] for the LRU
    implementation the tuner injects).  The memo is lossless — a compile
    through a store, warm, cold or mid-eviction, emits the same bytes as a
    from-scratch compile. *)

val verify_default : bool ref
(** When true, every compile runs the IR verifier after lowering and after
    each IR pass (CLI [--verify-ir], bench [-verify]).  Off by default —
    verification costs a dataflow solve per pass per function. *)

exception Verification_failed of string
(** Raised by the verify gate; the message names the offending pass, the
    function, and the profile/arch/flag-vector context. *)

val test_break : (string * (Vir.Ir.func -> unit)) option ref
(** Test-only hook: [Some (pass, mutate)] applies [mutate] to every
    function right after [pass] runs on it, so tests can plant a
    miscompile and assert the verifier attributes it to [pass]. *)

type snapshot_store = {
  find : string -> string option;
      (** Look a key up; [None] on a cold or evicted key.  Must be safe
          to call from any worker domain. *)
  store : string -> string -> unit;
      (** Publish the value for a key.  Values are deterministic per key
          (up to marshaling of equal values), so keep-first semantics
          under racing writers are exact. *)
}
(** The incremental-compilation seam: how the pipeline reads and writes
    its memo without depending on any cache implementation. *)

val cache_seed : profile:string -> arch:Isa.Insn.arch -> Minic.Ast.program -> string
(** The key-chain seed for one (program, profile, arch) context.  Two
    contexts differing in any component get disjoint lowered-index and
    codegen keys — the guard against the cross-profile/cross-arch
    staleness hazard, pinned by the regression tests.  IR transitions are
    content-addressed and shared by every context: no IR pass reads the
    profile or the arch. *)

val is_codegen_key : string -> bool
(** Whether a store key names a function's selected code (the entries
    behind the [codegen.fn.hit] / [codegen.fn.miss] counters). *)

val apply_passes :
  ?verify:bool ->
  ?where:string ->
  ?snapshot:snapshot_store ->
  ?cache_seed:string ->
  Config.t ->
  Minic.Ast.program ->
  Vir.Ir.program
(** Run the AST passes, lowering, and IR passes dictated by the
    configuration and return the optimized IR (exposed for tests).
    [verify] defaults to [!verify_default]; [where] is appended to
    verification-failure messages.  With [snapshot], the IR passes run
    through the per-function memo, its lowered index keyed from
    [cache_seed] (default: a digest of the program alone — pass
    {!cache_seed}'s result to share the index with {!compile}).  A
    verified compile, or one under {!test_break}, runs every step from
    source and neither reads nor writes the store. *)

val compile :
  ?config:Config.t ->
  ?verify:bool ->
  ?flag_desc:string ->
  ?snapshot:snapshot_store ->
  ?boundaries:(string, int list) Hashtbl.t ->
  arch:Isa.Insn.arch ->
  profile:string ->
  opt_label:string ->
  Minic.Ast.program ->
  Isa.Binary.t
(** Compile a checked program (see {!Minic.Sema.analyze}).  The default
    configuration is {!Config.o0}.  With [snapshot], the IR passes run
    through the per-function memo and each function's instruction
    selection and register allocation are memoized under its final
    digest, the codegen options and the function and global order; data
    layout and assembly then run afresh.  The emitted binary is stored
    too, so a compile of the same program, profile, arch, resolved steps,
    label and codegen options is a single lookup.  When verification is on
    (or {!test_break} is set) the store is bypassed entirely, so the
    verifier sees every pass.  With [boundaries], the binary entry is
    bypassed, every function is selected afresh, and the table maps each function to its ground-truth
    instruction-start offsets — see {!Codegen.Emit.compile_program}.
    Telemetry: counters [pipeline.fn.hit] / [.miss] (IR transitions),
    [pipeline.fn.evicted] (compiles recomputed from source because a
    needed function state was evicted), [codegen.fn.hit] / [.miss], and
    the span [pipeline.fn_store] around marshaling and publishing a
    function state. *)

val compile_flags :
  Flags.profile ->
  ?arch:Isa.Insn.arch ->
  ?snapshot:snapshot_store ->
  ?boundaries:(string, int list) Hashtbl.t ->
  bool array ->
  Minic.Ast.program ->
  Isa.Binary.t
(** Compile under an explicit flag vector of the given profile (the
    GA's entry point).  Default arch x86-64. *)

val compile_preset :
  Flags.profile ->
  ?arch:Isa.Insn.arch ->
  ?snapshot:snapshot_store ->
  ?boundaries:(string, int list) Hashtbl.t ->
  string ->
  Minic.Ast.program ->
  Isa.Binary.t
(** Compile at a named preset: "O0", "O1", "O2", "O3" or "Os".  Raises
    [Invalid_argument] on an unknown preset name. *)
