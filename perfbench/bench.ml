(* The benchmark client.

   Reads a generated job list on stdin, runs one workload through the
   library's public entry points only, checks every job's outputs, and
   prints one JSON object of raw measurements on stdout.  Statistics,
   metric names and the determinism record live in run.py, which
   generates the job list from the benchmark seed and starts this
   program.

     bench.exe --mode tune|serve --seconds S --trace 0|1 --dir D

   stdin: [round] lines open a round; [job BENCH PROFILE STRATEGY BUDGET
   SEED OBJECTIVE] lines add a job to the current round.

   tune:  rounds run until S seconds have passed (at least one).  Each
          job runs cold on a fresh session with its own pool, then warm:
          the same job again on that session.
   serve: cycles run until S seconds have passed (at least one), one
          per round.  A daemon over a fresh store in D runs the round
          cold, then the daemon is restarted twice over that store and
          runs it warm.

   With --trace 1 the run warms up on the first round, measures it again
   untraced and then with telemetry on, and replays every cold tune job's
   evaluation list at -j 1 through the pipeline's public steps (serve:
   the three are warm restarts of one cycle, and nothing is replayed). *)

module J = Util.Json
module T = Bintuner.Tuner
module P = Toolchain.Pipeline

type job = {
  bench : Corpus.benchmark;
  profile : Toolchain.Flags.profile;
  strategy : string;
  budget : int;
  seed : int;
  objective : string;
}

(* Worker domains of every session and daemon: the reference machine
   has 2 cores. *)
let pool_size = 2

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* CPU seconds of this process, user and system, over all domains. *)
let cpu_now () =
  let t = Unix.times () in
  t.tms_utime +. t.tms_stime

(* Wall and CPU seconds of one call. *)
let clocked f =
  let c0 = cpu_now () in
  let v, wall = timed f in
  (v, (wall, cpu_now () -. c0))

(* ------------------------------------------------------------------ *)
(* Input                                                               *)
(* ------------------------------------------------------------------ *)

let parse_job line =
  match String.split_on_char ' ' (String.trim line) with
  | [ "job"; b; p; s; budget; seed; obj ] ->
    {
      bench = Corpus.find b;
      profile = Toolchain.Flags.find p;
      strategy = s;
      budget = int_of_string budget;
      seed = int_of_string seed;
      objective = obj;
    }
  | _ -> failwith ("bad job line: " ^ line)

let read_rounds () =
  let rounds = ref [] and cur = ref [] in
  let close () =
    if !cur <> [] then rounds := List.rev !cur :: !rounds;
    cur := []
  in
  (try
     while true do
       match String.trim (input_line stdin) with
       | "" -> ()
       | "round" -> close ()
       | line -> cur := parse_job line :: !cur
     done
   with End_of_file -> ());
  close ();
  List.rev !rounds

(* ------------------------------------------------------------------ *)
(* Output checks                                                       *)
(* ------------------------------------------------------------------ *)

(* A job is one attempt; it fails if any check on it fails or raises. *)
let attempted = ref 0
let failures : string list ref = ref []

let attempt label f =
  incr attempted;
  let problems =
    match f () with
    | ps -> ps
    | exception e -> [ "raised " ^ Printexc.to_string e ]
  in
  if problems <> [] then
    failures := (label ^ ": " ^ String.concat "; " problems) :: !failures

(* The reference outputs come from the VIR interpreter over the
   unoptimized lowering, so no pass or code generator under test takes
   part in them. *)
let reference =
  let tbl = Hashtbl.create 8 in
  fun (b : Corpus.benchmark) ->
    match Hashtbl.find_opt tbl b.bname with
    | Some r -> r
    | None ->
      let ir = Vir.Lower.lower_program (Corpus.program b) in
      let r =
        List.map (fun input -> (input, Vir.Interp.run ir ~input)) b.workloads
      in
      Hashtbl.replace tbl b.bname r;
      r

let oracle (b : Corpus.benchmark) what bin =
  List.filter_map
    (fun (input, (e : Vir.Interp.result)) ->
      let r =
        Telemetry.with_span "bench.vm" (fun () -> Vm.Machine.run bin ~input)
      in
      if r.output = e.output && r.return_value = e.return_value then None
      else
        Some
          (Printf.sprintf "%s binary differs from the interpreter on input [%s]"
             what
             (String.concat "," (Array.to_list (Array.map string_of_int input)))))
    (reference b)

(* ------------------------------------------------------------------ *)
(* Per-job records                                                     *)
(* ------------------------------------------------------------------ *)

type record = {
  round : int;
  index : int;
  phase : string;  (** "cold" or "warm" *)
  j : job;
  wall : float;
  cpu : float;
  iterations : int;
  best_ncd : float;
  best_vector : bool array;
  compilations : int;
  store_hits : int;
}

let records : record list ref = ref []

let record_json r =
  J.Obj
    [
      ("round", J.Int r.round);
      ("index", J.Int r.index);
      ("phase", J.Str r.phase);
      ("bench", J.Str r.j.bench.bname);
      ("profile", J.Str r.j.profile.profile_name);
      ("strategy", J.Str r.j.strategy);
      ("seed", J.Int r.j.seed);
      ("budget", J.Int r.j.budget);
      ("objective", J.Str r.j.objective);
      ("wall_s", J.Float r.wall);
      ("cpu_s", J.Float r.cpu);
      ("iterations", J.Int r.iterations);
      ("best_ncd", J.Float r.best_ncd);
      ("compilations", J.Int r.compilations);
      ("store_hits", J.Int r.store_hits);
    ]

(* The best genome's NCD, whatever the other axes of its objective. *)
let ncd_axis names scores =
  let rec find i = function
    | [] -> nan
    | "ncd" :: _ -> scores.(i)
    | _ :: rest -> find (i + 1) rest
  in
  find 0 names

let label r =
  Printf.sprintf "round %d job %d (%s %s %s seed %d, %s)" r.round r.index
    r.j.bench.bname r.j.profile.profile_name r.j.strategy r.j.seed r.phase

let same_outcome ~cold r =
  if r.best_vector = cold.best_vector && r.best_ncd = cold.best_ncd then []
  else [ "warm outcome differs from the cold one" ]

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

(* Wall seconds of each set-up the program runs: a session with its
   pool (tune) or a daemon over its store (serve). *)
let setup_samples : float list ref = ref []
let add_setup s = setup_samples := s :: !setup_samples

(* ------------------------------------------------------------------ *)
(* Workload: tune                                                      *)
(* ------------------------------------------------------------------ *)

let termination j = { Search.default_termination with max_evaluations = j.budget }

let tune_once session j =
  T.tune ~termination:(termination j) ~seed:j.seed
    ~strategy:(Search.of_name j.strategy)
    ~objectives:(Search.Objective.parse j.objective)
    ~session ~profile:j.profile j.bench

let tune_record ~round ~index ~phase j (wall, cpu) (r : T.result) =
  {
    round;
    index;
    phase;
    j;
    wall;
    cpu;
    iterations = r.iterations;
    best_ncd = ncd_axis r.objectives r.best_scores;
    best_vector = r.best_vector;
    compilations = r.compilations;
    store_hits = r.store_hits;
  }

(* One round of the tune workload; returns the cold jobs' records and
   results.  A job whose tuning raises counts as one failed attempt and
   leaves no record. *)
let tune_round ~round jobs =
  List.concat
    (List.mapi
       (fun index j ->
         let session, dt =
           timed (fun () -> Bintuner.Session.create ~jobs:pool_size ())
         in
         add_setup dt;
         Fun.protect ~finally:(fun () -> Bintuner.Session.close session)
         @@ fun () ->
         match
           let cold, tc = clocked (fun () -> tune_once session j) in
           let warm, tw = clocked (fun () -> tune_once session j) in
           (cold, tc, warm, tw)
         with
         | exception e ->
           attempt
             (Printf.sprintf "round %d job %d (%s seed %d)" round index
                j.bench.bname j.seed)
             (fun () -> raise e);
           []
         | cold, tc, warm, tw ->
           let rc = tune_record ~round ~index ~phase:"cold" j tc cold in
           let rw = tune_record ~round ~index ~phase:"warm" j tw warm in
           records := rw :: rc :: !records;
           attempt (label rc) (fun () ->
               oracle j.bench "best" cold.best_binary
               @ oracle j.bench "refined" cold.refined_binary);
           attempt (label rw) (fun () ->
               same_outcome ~cold:rc rw
               @
               if warm.best_binary = cold.best_binary then []
               else [ "warm best binary differs from the cold one" ]);
           [ (rc, cold) ])
       jobs)

(* ------------------------------------------------------------------ *)
(* Workload: serve                                                     *)
(* ------------------------------------------------------------------ *)

let request j =
  Printf.sprintf "tune bench=%s profile=%s strategy=%s budget=%d seed=%d objective=%s"
    j.bench.bname j.profile.profile_name j.strategy j.budget j.seed j.objective

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* One daemon lifetime over the store: start it (a set-up sample), run
   the job list one request at a time, stop it. *)
let serve_pass ~store ~round ~phase ~cold_of list =
  let d, dt =
    timed (fun () -> Bintuner.Server.create ~jobs:pool_size ~store_dir:store ())
  in
  add_setup dt;
  Fun.protect ~finally:(fun () -> Bintuner.Server.close d) @@ fun () ->
  let recs =
    List.mapi
      (fun index j ->
        let before = List.length (Bintuner.Server.completed d) in
        let (lines, _), (wall, cpu) =
          clocked (fun () -> Bintuner.Server.handle_line d (request j))
        in
        let pending = { round; index; phase; j; wall; cpu; iterations = 0;
                        best_ncd = 0.; best_vector = [||]; compilations = 0;
                        store_hits = 0 } in
        match List.nth_opt (Bintuner.Server.completed d) before with
        | Some s ->
          let r =
            { pending with
              iterations = s.iterations;
              best_ncd = ncd_axis s.objectives s.best_scores;
              best_vector = s.best_vector;
              compilations = s.compilations;
              store_hits = s.store_hits }
          in
          records := r :: !records;
          attempt (label r) (fun () ->
              let check () =
                oracle j.bench "best"
                  (P.compile_flags j.profile s.best_vector
                     (Corpus.program j.bench))
              in
              match cold_of index with
              (* a traced window checks warm jobs' binaries too, so
                 vm.s_per_job has samples *)
              | Some cold when Telemetry.enabled (Telemetry.global ()) ->
                same_outcome ~cold r @ check ()
              | Some cold -> same_outcome ~cold r
              | None -> check ());
          r
        | _ ->
          attempt (label pending) (fun () ->
              [ "the daemon did not complete the job: " ^ String.concat " " lines ]);
          pending)
      list
  in
  let store_bytes =
    match Bintuner.Session.store (Bintuner.Server.session d) with
    | Some st -> Bintuner.Store.bytes st
    | None -> 0
  in
  (recs, store_bytes)

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)
(* ------------------------------------------------------------------ *)

(* The passes whose [pass.<name>] spans are reported one by one. *)
let split_passes = [ "sccp"; "baseline"; "licm_dom"; "gvn"; "if_convert"; "lower" ]

let words_allocated () =
  let s = Gc.quick_stat () in
  s.minor_words +. s.major_words -. s.promoted_words

let mb_of_words w = w *. float_of_int (Sys.word_size / 8) /. 1048576.

(* Time and allocation of one call, under a benchmark span. *)
let measured name f =
  let w0 = words_allocated () in
  let v, dt = timed (fun () -> Telemetry.with_span name f) in
  (v, dt, words_allocated () -. w0)

type replay = {
  mutable evals : int;
  mutable passes_max : float;
  mutable passes_s : float;
  mutable passes_words : float;
  mutable store_s : float;
  mutable codegen_s : float;
  mutable codegen_words : float;
  mutable ncd_s : float;
  mutable snap_hits : int;
  mutable snap_lookups : int;
  mutable snap_bytes : int;
}

let new_replay () =
  { evals = 0; passes_max = 0.; passes_s = 0.; passes_words = 0.; store_s = 0.;
    codegen_s = 0.; codegen_words = 0.; ncd_s = 0.; snap_hits = 0;
    snap_lookups = 0; snap_bytes = 0 }

(* Replay one cold tune job's evaluations in order at -j 1. *)
let replay_job acc label (j : job) (r : T.result) =
  attempt label @@ fun () ->
  let ast = Corpus.program j.bench in
  let incr = Bintuner.Incremental.create () in
  let snapshot = Bintuner.Incremental.snapshot_store incr in
  let cache = Compress.Sizecache.create () in
  let baseline = T.code_stream (P.compile_preset j.profile "O0" ast) in
  let problems = ref [] in
  List.iter
    (fun (e : T.entry) ->
      let cfg =
        Telemetry.with_span "bench.resolve" (fun () ->
            Toolchain.Flags.resolve j.profile e.vector)
      in
      let ir, dt, words =
        measured "bench.passes" (fun () -> P.apply_passes cfg ast)
      in
      (* untraced, so the library's pass spans count the run without
         the store alone *)
      let tel = Telemetry.global () in
      Telemetry.set_global Telemetry.null;
      let _, dts =
        Fun.protect ~finally:(fun () -> Telemetry.set_global tel) (fun () ->
            timed (fun () -> P.apply_passes ~snapshot cfg ast))
      in
      let bin, dc, cg_words =
        measured "bench.codegen" (fun () ->
            Codegen.Emit.compile_program
              ~options:(Toolchain.Config.codegen_options cfg)
              ~arch:r.arch ~profile:j.profile.profile_name ~opt_label:"custom" ir)
      in
      let stream =
        Telemetry.with_span "bench.code_stream" (fun () -> T.code_stream bin)
      in
      let ncd, dn, _ =
        measured "bench.ncd" (fun () ->
            Compress.Ncd.against ~cache ~baseline [| stream |])
      in
      if e.vector = r.best_vector && bin <> r.best_binary then
        problems := "replayed best vector compiles to other bytes" :: !problems;
      if [| ncd.(0) |] <> e.fitness then
        problems := "replayed NCD differs from the recorded fitness" :: !problems;
      acc.evals <- acc.evals + 1;
      acc.passes_max <- Float.max acc.passes_max dt;
      acc.passes_s <- acc.passes_s +. dt;
      acc.passes_words <- acc.passes_words +. words;
      acc.store_s <- acc.store_s +. dts;
      acc.codegen_s <- acc.codegen_s +. dc;
      acc.codegen_words <- acc.codegen_words +. cg_words;
      acc.ncd_s <- acc.ncd_s +. dn)
    r.database;
  acc.snap_hits <- acc.snap_hits + Bintuner.Incremental.hits incr;
  acc.snap_lookups <- acc.snap_lookups + Bintuner.Incremental.lookups incr;
  acc.snap_bytes <- acc.snap_bytes + Bintuner.Incremental.bytes incr;
  List.sort_uniq compare !problems

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b
let per a n = if n = 0 then 0. else a /. float_of_int n

(* Per-layer figures of one traced window, from the spans and counters
   the library records and the benchmark's own spans.  [tel] was
   installed empty at the start of the window and is read before any
   replay adds to it; [untraced] holds the same jobs run untraced. *)
let window_metrics ~tel ~(untraced : record list) ~(window : record list)
    ~store_bytes =
  let span = Telemetry.span_seconds tel and count = Telemetry.counter_value tel in
  let cpu_of = List.fold_left (fun a r -> a +. r.cpu) 0. in
  let hit_ratio name =
    ratio (count (name ^ "hit")) (count (name ^ "hit") + count (name ^ "miss"))
  in
  let f = float_of_int in
  let n_jobs = List.length window in
  let wall = List.fold_left (fun a r -> a +. r.wall) 0. window in
  let batch_s =
    List.sort_uniq compare (List.map (fun r -> r.j.strategy) window)
    |> List.fold_left (fun a s -> a +. span ("search." ^ s ^ ".evaluate_batch")) 0.
  in
  [
    ("pool.busy_frac", span "pool.chunk" /. (f pool_size *. wall));
    ("sizecache.hit_ratio", hit_ratio "sizecache.");
    ("binhunt.s_per_job", per (span "tuner.binhunt") n_jobs);
    ("bcode.memo_hit_ratio", hit_ratio "diffing.bcode.memo_");
    ("binsight.s_per_job", per (span "binsight.inspect") n_jobs);
    ("objective.memo_hit_ratio", hit_ratio "objective.memo.");
    (* job wall not spent scoring batches or in the final BinHunt
       selection (which runs across the pool, hence the division) *)
    ( "search.unattributed_s_per_job",
      per (wall -. batch_s -. (span "tuner.binhunt" /. f pool_size)) n_jobs );
    ("memo.hit_ratio", hit_ratio "memo.");
    ("compilations", f (List.fold_left (fun a r -> a + r.compilations) 0 window));
    ("store.hit_ratio", hit_ratio "store.");
    ("store.bytes_mb", f store_bytes /. 1048576.);
    ("vm.s_per_job", per (span "bench.vm") n_jobs);
    (* jobs' CPU time only: a traced window also runs extra output
       checks between its jobs *)
    ("trace.overhead_frac", (cpu_of window /. cpu_of untraced) -. 1.);
  ]

(* Per-evaluation figures of the replay.  [pass_s] gives each split
   pass's span seconds over the replay (all zero when nothing was
   replayed). *)
let replay_metrics ~pass_s r =
  [
    ("passes.s_per_eval", per r.passes_s r.evals);
    ("passes.max_eval_s", r.passes_max);
    ("passes.alloc_mb_per_eval", per (mb_of_words r.passes_words) r.evals);
    ("codegen.s_per_eval", per r.codegen_s r.evals);
    ("codegen.alloc_mb_per_eval", per (mb_of_words r.codegen_words) r.evals);
    ("snapshot.hit_ratio", ratio r.snap_hits r.snap_lookups);
    ("snapshot.bytes_mb", float_of_int r.snap_bytes /. 1048576.);
    ("snapshot.net_s_per_eval", per (r.store_s -. r.passes_s) r.evals);
    ("ncd.s_per_eval", per r.ncd_s r.evals);
  ]
  @ List.map (fun p -> ("pass." ^ p ^ ".s", per (pass_s p) r.evals)) split_passes

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

(* Runs [f] on successive rounds until [seconds] have passed, and on at
   least one. *)
let for_seconds seconds rounds f =
  let t0 = now () in
  let rec go i = function
    | [] -> ()
    | r :: rest ->
      f i r;
      if now () -. t0 < seconds then go (i + 1) rest
  in
  go 0 rounds

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
          float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> 0.
  in
  scan ()

let () =
  let mode = ref "" and seconds = ref 10. and trace = ref 0 in
  let dir = ref "" in
  Arg.parse
    [
      ("--mode", Arg.Set_string mode, "tune|serve");
      ("--seconds", Arg.Set_float seconds, "measurement time");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--dir", Arg.Set_string dir, "scratch directory for stores");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --mode tune|serve --seconds S --trace 0|1 --dir D < jobs";
  let rounds = read_rounds () in
  if rounds = [] then failwith "empty job list";
  let first = List.hd rounds in
  let layers = ref [] in
  let tel = Telemetry.create () in
  (match !mode with
  | "tune" ->
    List.iter (fun j -> ignore (Corpus.program j.bench)) first;
    if !trace = 0 then
      for_seconds !seconds rounds (fun round r -> ignore (tune_round ~round r))
    else begin
      (* a warm-up round first, so the untraced round does not pay the
         process's one-time costs alone *)
      ignore (tune_round ~round:0 first);
      records := [];
      ignore (tune_round ~round:1 first);
      let untraced = List.rev !records in
      records := [];
      Telemetry.set_global tel;
      let cold_jobs = tune_round ~round:2 first in
      let window = List.rev !records in
      let wm = window_metrics ~tel ~untraced ~window ~store_bytes:0 in
      let replay = new_replay () in
      let pass_span p = Telemetry.span_seconds tel ("pass." ^ p) in
      let before = List.map (fun p -> (p, pass_span p)) split_passes in
      List.iter
        (fun (r, cold) -> replay_job replay (label r ^ " replay") r.j cold)
        cold_jobs;
      Telemetry.set_global Telemetry.null;
      layers :=
        wm @ replay_metrics ~pass_s:(fun p -> pass_span p -. List.assoc p before) replay
    end
  | "serve" ->
    List.iter (fun j -> ignore (Corpus.program j.bench)) first;
    (* One cycle per round: a daemon over a fresh store runs the round's
       jobs cold, then [restarts] daemons over that store run them warm;
       [traced] picks the warm restarts that run with telemetry on. *)
    let cycle ~round ~restarts ~traced list =
      let store = Filename.concat !dir (Printf.sprintf "store-%d" round) in
      remove_tree store;
      Fun.protect ~finally:(fun () -> remove_tree store) @@ fun () ->
      let colds, _ =
        serve_pass ~store ~round ~phase:"cold" ~cold_of:(fun _ -> None) list
      in
      List.init restarts (fun k ->
          if traced k then Telemetry.set_global tel;
          Fun.protect ~finally:(fun () -> Telemetry.set_global Telemetry.null) @@ fun () ->
          serve_pass ~store ~round ~phase:"warm"
            ~cold_of:(List.nth_opt colds) list)
    in
    if !trace = 0 then
      for_seconds !seconds rounds (fun round r ->
          ignore (cycle ~round ~restarts:2 ~traced:(fun _ -> false) r))
    else begin
      (* serve jobs expose no evaluation list, so nothing is replayed *)
      match cycle ~round:0 ~restarts:3 ~traced:(fun k -> k = 2) first with
      | [ _warm_up; (untraced, _); (window, store_bytes) ] ->
        layers :=
          window_metrics ~tel ~untraced ~window ~store_bytes
          @ replay_metrics ~pass_s:(fun _ -> 0.) (new_replay ())
      | _ -> assert false
    end
  | m -> failwith ("unknown mode " ^ m));
  J.to_channel stdout
    (J.Obj
       [
         ("setup_s", J.List (List.rev_map (fun s -> J.Float s) !setup_samples));
         ("jobs", J.List (List.rev_map record_json !records));
         ("attempted", J.Int !attempted);
         ("failures", J.List (List.rev_map (fun s -> J.Str s) !failures));
         ("peak_rss_mb", J.Float (peak_rss_mb ()));
         ("layers", J.Obj (List.map (fun (k, v) -> (k, J.Float v)) !layers));
       ])
