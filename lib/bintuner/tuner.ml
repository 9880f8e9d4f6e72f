type entry = {
  vector : bool array;
  fitness : float array;  (** objective vector, spec order *)
}

type result = {
  benchmark : string;
  profile_name : string;
  strategy : string;
  arch : Isa.Insn.arch;
  objectives : string list;  (** axis names, vector order *)
  best_vector : bool array;
  best_binary : Isa.Binary.t;
  best_ncd : float;  (** scalarized best — exactly the NCD on the
                         default 1-objective spec *)
  best_scores : float array;  (** the best genome's raw objective vector *)
  front : (bool array * float array) list;
      (** Pareto front of (flag vector, objective vector); a singleton
          on 1-objective runs *)
  refined_vector : bool array;
  refined_binary : Isa.Binary.t;
  preset_ncd : (string * float) list;
  iterations : int;
  history : (int * float) list;
  wall_seconds : float;
  functional_ok : bool;
  cache_hits : int;
  compilations : int;
  ncd_cache_hits : int;
  ncd_cache_misses : int;
  incr_hits : int;
  incr_misses : int;
  store_hits : int;
  store_misses : int;
  objective_hits : int;  (** per-axis memo hits (0 on the scalar path) *)
  objective_misses : int;
  database : entry list;
}

let ncd_of_binaries a b =
  Compress.Ncd.distance a.Isa.Binary.text b.Isa.Binary.text

let code_stream (bin : Isa.Binary.t) =
  let insns = Isa.Codec.decode_all bin.arch bin.text in
  let b = Buffer.create (List.length insns) in
  List.iter
    (fun (_, i) -> Buffer.add_char b (Char.chr (Diffing.Bcode.opcode_class i)))
    insns;
  Buffer.contents b

let fitness_of_binaries a b =
  Compress.Ncd.distance (code_stream a) (code_stream b)

let flags_enabled (p : Toolchain.Flags.profile) vector =
  let names = ref [] in
  Array.iteri
    (fun i on -> if on then names := p.Toolchain.Flags.flags.(i).name :: !names)
    vector;
  List.rev !names

let functional_check bench bin0 bin =
  List.for_all
    (fun input ->
      let r0 = Vm.Machine.run bin0 ~input in
      let r = Vm.Machine.run bin ~input in
      r0.Vm.Machine.output = r.Vm.Machine.output
      && r0.Vm.Machine.return_value = r.Vm.Machine.return_value)
    bench.Corpus.workloads

let tune ?(arch = Isa.Insn.X86_64) ?(params = Search.Genetic.default_params)
    ?(termination = Search.default_termination) ?(seed = 1) ?strategy ?pool
    ?session ?(memoize = true) ?(incremental = true) ?(ncd_bound = false)
    ?lz_level ?(objectives = Search.Objective.default)
    ~(profile : Toolchain.Flags.profile) (bench : Corpus.benchmark) =
  let t0 = Unix.gettimeofday () in
  if objectives = [] then invalid_arg "Tuner.tune: empty objective spec";
  (* the paper's original problem — one NCD axis at unit weight — takes
     the historical batched fast path below (incumbent early-exit and
     all) and is bit-identical to the pre-vector tuner *)
  let scalar_ncd = Search.Objective.is_scalar_ncd objectives in
  let strategy =
    match strategy with
    | Some s -> s
    | None -> Search.Genetic.strategy ~params ()
  in
  (* a pool we create ourselves is ours to shut down, on every exit; a
     session's pool (like an explicit one) outlives the call *)
  let owned_pool, pool =
    match (pool, session) with
    | Some p, _ -> (None, p)
    | None, Some s -> (None, Session.pool s)
    | None, None ->
      let p = Parallel.Pool.create 1 in
      (Some p, p)
  in
  Fun.protect
    ~finally:(fun () -> Option.iter Parallel.Pool.shutdown owned_pool)
  @@ fun () ->
  let rng = Util.Rng.create (seed + Hashtbl.hash (bench.Corpus.bname, profile.profile_name)) in
  let ast = Corpus.program bench in
  (* the pass-prefix snapshot store: every compile of this run — across
     all worker domains — reads and writes one LRU of post-step IR
     snapshots, so single-flag neighbours resume mid-pipeline instead of
     recompiling from source.  Lossless, hence safe to default on; under
     a session the store is shared so later jobs resume from prefixes
     earlier jobs produced. *)
  let prefix =
    if not incremental then None
    else
      match session with
      | Some s -> Some (Session.incremental s)
      | None -> Some (Incremental.create ())
  in
  let snapshot = Option.map Incremental.snapshot_store prefix in
  let baseline = Toolchain.Pipeline.compile_preset profile ~arch ?snapshot "O0" ast in
  let baseline_stream = code_stream baseline in
  (* every C(x) / C(x·baseline) term of this run goes through one
     content-addressed cache: the baseline's solo size is compressed
     once, and candidates the GA revisits hit instead of re-compressing.
     Under a session the cache (one per compression level) is shared —
     and, with a persistent store attached, durable. *)
  let lz_level =
    match lz_level with Some l -> l | None -> Compress.Lz.default_level ()
  in
  let ncd_cache =
    match session with
    | Some s -> Session.sizecache s lz_level
    | None -> Compress.Sizecache.create ~level:lz_level ()
  in
  let database = ref [] in
  let memo =
    match session with
    | Some s when memoize -> Session.memo s
    | _ -> Memo.create ~enabled:memoize ()
  in
  let store = Option.bind session Session.store in
  (* shared caches carry traffic from earlier jobs; snapshot the counters
     so this result reports per-job deltas (for a fresh cache the deltas
     equal the raw counters, keeping one-shot results byte-identical) *)
  let memo_hits0 = Memo.hits memo in
  let memo_misses0 = Memo.misses memo in
  let ncd_hits0 = Compress.Sizecache.hits ncd_cache in
  let ncd_misses0 = Compress.Sizecache.misses ncd_cache in
  let incr_hits0 =
    match prefix with Some p -> Incremental.hits p | None -> 0
  in
  let incr_misses0 =
    match prefix with Some p -> Incremental.misses p | None -> 0
  in
  let store_hits0 = match store with Some s -> Store.hits s | None -> 0 in
  let store_misses0 = match store with Some s -> Store.misses s | None -> 0 in
  let program = Digest.to_hex (Digest.string bench.Corpus.source) in
  let compile vector =
    let key = Memo.key ~program ~profile:profile.profile_name ~arch vector in
    Memo.find_or_compile memo ~key (fun () ->
        Telemetry.with_span "tuner.compile" (fun () ->
            Toolchain.Pipeline.compile_flags profile ~arch ?snapshot vector ast))
  in
  (* The multi-objective evaluator: per-axis memoized evaluation over
     the compiled binary.  The [ncd] axis reuses this run's size cache
     and baseline; the [evasion] axis trains the provenance adversary on
     this profile's presets once, then scores each candidate by its
     distance to the nearest preset centroid (further = more evasive). *)
  let evaluator =
    if scalar_ncd then None
    else begin
      let ncd_hook bin =
        Compress.Ncd.distance_via ncd_cache (code_stream bin) baseline_stream
      in
      let evasion_hook =
        if
          not
            (List.exists (fun (a, _) -> a = Search.Objective.Evasion) objectives)
        then None
        else begin
          let labelled =
            List.map
              (fun name ->
                ( {
                    Provenance.Classify.profile = profile.profile_name;
                    preset = name;
                  },
                  Toolchain.Pipeline.compile_preset profile ~arch ?snapshot name
                    ast ))
              [ "O0"; "O1"; "O2"; "O3"; "Os" ]
          in
          let model =
            Telemetry.with_span "tuner.train_adversary" (fun () ->
                Provenance.Classify.train labelled)
          in
          Some (fun bin -> snd (Provenance.Classify.classify model bin))
        end
      in
      Some (Search.Objective.evaluator ~ncd:ncd_hook ?evasion:evasion_hook objectives)
    end
  in
  (* Pinned by the engine before each batch (never mid-batch), so the
     early-exit cap every worker prunes against is a pure function of
     the sequential search state. *)
  let incumbent = ref neg_infinity in
  (* One generation's worth of candidates at a time: compile + evaluation
     run in parallel across the pool (each candidate's objective vector
     is a pure function of its flag vector), then the iteration database
     is appended sequentially in input order — the scheduling of the
     batch can never leak into the result. *)
  let batch_fitness vectors =
    let vecs =
      match evaluator with
      | None ->
        (* scalar-NCD fast path: batched pair compression with the
           optional incumbent early-exit bound *)
        let streams =
          Parallel.Pool.map pool
            (fun v ->
              let bin = compile v in
              code_stream bin)
            vectors
        in
        let ncds =
          Compress.Ncd.against ~pool ~span:"tuner.ncd"
            ?incumbent:(if ncd_bound then Some !incumbent else None)
            ~cache:ncd_cache ~baseline:baseline_stream streams
        in
        Array.map (fun n -> [| n |]) ncds
      | Some ev ->
        (* multi-objective: whole axis vectors per candidate, fanned
           across the pool (the per-axis memos are mutex-guarded).  The
           NCD early-exit bound stays off here — a pruned NCD is only an
           upper bound, which would poison the Pareto archive. *)
        Parallel.Pool.map pool
          (fun v -> Search.Objective.evaluate ev (compile v))
          vectors
    in
    Array.iteri
      (fun i v ->
        database := { vector = Array.copy v; fitness = vecs.(i) } :: !database)
      vectors;
    vecs
  in
  let fitness vector = (batch_fitness [| vector |]).(0) in
  let scalarize = Search.Objective.scalarize objectives in
  let axis_names = Search.Objective.names objectives in
  let seeds =
    List.filter_map
      (fun name -> Toolchain.Flags.preset profile name)
      [ "O1"; "O2"; "O3"; "Os" ]
  in
  let outcome =
    let problem =
      {
        Search.ngenes = Array.length profile.flags;
        seeds;
        repair = Toolchain.Constraints.repair profile rng;
      }
    in
    Search.run ~batch_fitness
      ~notify_incumbent:(fun f -> incumbent := f)
      ~scalarize ~axes:axis_names ~rng ~termination ~problem ~fitness strategy
  in
  (* Final selection: the GA typically ends with a set of near-tied best
     fitness values ("multiple different versions that all reveal the
     best NCD score", §5.2).  Among the top candidates, pick the one the
     objective reference metric (BinHunt) rates as most different from
     the baseline — the paper's verification step, folded into the
     output choice. *)
  let top_candidates =
    let sorted =
      List.sort
        (fun a b -> compare (scalarize b.fitness) (scalarize a.fitness))
        !database
    in
    let seen = Hashtbl.create 16 in
    let dedup =
      List.filter
        (fun e ->
          let key = Array.to_list e.vector in
          if Hashtbl.mem seen key then false
          else begin
            Hashtbl.replace seen key ();
            true
          end)
        sorted
    in
    let n = List.length dedup in
    (* the fitness optimum is a cluster of near-identical flag soups;
       stratify across the whole (fitness-sorted) database so the
       reference metric also sees structurally different near-optima,
       including the preset seeds *)
    let top = List.filteri (fun i _ -> i < 4) dedup in
    let stride = max 1 (n / 5) in
    let strata = List.filteri (fun i _ -> i mod stride = 0 && i >= 4) dedup in
    (* the -Ox seeds started the population; keep their (repaired)
       vectors in the verification set so a misaligned fitness never
       makes the final output regress below the presets it grew from *)
    let seed_entries =
      List.map
        (fun v ->
          { vector = Toolchain.Constraints.repair profile rng (Array.copy v);
            fitness = Array.make (Search.Objective.arity objectives) 0.0 })
        seeds
    in
    top @ List.filteri (fun i _ -> i < 4) strata @ seed_entries
  in
  let best_binary = compile outcome.best in
  let refined_vector, refined_binary =
    match top_candidates with
    | [] -> (outcome.best, best_binary)
    | cands ->
      (* BinHunt is two orders of magnitude dearer than the fitness
         (§4.2): score the verification set across the pool *)
      let scored =
        Parallel.Pool.map_list ~chunk_size:1 pool
          (fun e ->
            let bin = compile e.vector in
            let score =
              Telemetry.with_span "tuner.binhunt" (fun () ->
                  Diffing.Binhunt.diff_score bin baseline)
            in
            (score, e.vector, bin))
          cands
      in
      let best_score, v, b =
        List.fold_left
          (fun (bs, bv, bb) (s, v, b) ->
            if s > bs then (s, v, b) else (bs, bv, bb))
          (neg_infinity, outcome.best, best_binary)
          scored
      in
      ignore best_score;
      (v, b)
  in
  let preset_ncd =
    Parallel.Pool.map_list ~chunk_size:1 pool
      (fun name ->
        let bin = Toolchain.Pipeline.compile_preset profile ~arch ?snapshot name ast in
        (name, Compress.Ncd.distance_via ncd_cache (code_stream bin) baseline_stream))
      [ "O0"; "O1"; "O2"; "O3"; "Os" ]
  in
  {
    benchmark = bench.bname;
    profile_name = profile.profile_name;
    strategy = Search.name strategy;
    arch;
    objectives = axis_names;
    best_vector = outcome.best;
    best_binary;
    refined_vector;
    refined_binary;
    best_ncd = outcome.best_fitness;
    best_scores = outcome.best_vector;
    front = outcome.front;
    preset_ncd;
    iterations = outcome.evaluations;
    history = outcome.history;
    wall_seconds = Unix.gettimeofday () -. t0;
    functional_ok =
      functional_check bench baseline best_binary
      && functional_check bench baseline refined_binary;
    cache_hits = Memo.hits memo - memo_hits0;
    compilations = Memo.misses memo - memo_misses0;
    ncd_cache_hits = Compress.Sizecache.hits ncd_cache - ncd_hits0;
    ncd_cache_misses = Compress.Sizecache.misses ncd_cache - ncd_misses0;
    incr_hits =
      (match prefix with Some p -> Incremental.hits p - incr_hits0 | None -> 0);
    incr_misses =
      (match prefix with
      | Some p -> Incremental.misses p - incr_misses0
      | None -> 0);
    store_hits =
      (match store with Some s -> Store.hits s - store_hits0 | None -> 0);
    store_misses =
      (match store with Some s -> Store.misses s - store_misses0 | None -> 0);
    objective_hits =
      (match evaluator with
      | None -> 0
      | Some ev ->
        List.fold_left
          (fun acc (_, h, _) -> acc + h)
          0
          (Search.Objective.memo_counts ev));
    objective_misses =
      (match evaluator with
      | None -> 0
      | Some ev ->
        List.fold_left
          (fun acc (_, _, m) -> acc + m)
          0
          (Search.Objective.memo_counts ev));
    database = List.rev !database;
  }
