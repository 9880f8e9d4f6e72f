(* The serve daemon: tuning as a service.

   A long-running process accepts tuning jobs over a line protocol —
   one request per line, one single-line JSON object per response — and
   multiplexes them onto one shared [Session]: one worker pool, one
   compile memo, one size cache per compression level, one incremental
   store, and (when configured) one persistent on-disk [Store].
   The second job over a corpus starts with the first job's artifacts
   warm; with a store, so does the first job after a restart.

   Requests:

     submit k=v ...    enqueue a job; replies with its id + queue depth
     run               drain the queue, one response line per job
     tune k=v ...      submit + run one job
     status            queue depth, completed-job stats, cache counters
     quit              stop the daemon

   Job parameters (all optional): bench=<corpus name> profile=gcc|llvm
   arch=x86-64|x86-32|arm|mips strategy=<registry name> budget=<max
   evaluations> lz-level=<level> seed=<int>
   objective=<axes, e.g. ncd,gadgets:0.5>.  Blank lines and #-comments
   are ignored.

   Jobs run sequentially on the daemon thread (the pool parallelizes
   inside a job); [handle_line] is the whole protocol, so tests drive a
   server in-process without sockets, and the same function backs both
   the stdin/stdout mode (CI smoke) and the Unix-socket accept loop. *)

type job = {
  id : int;
  bench : Corpus.benchmark;
  profile : Toolchain.Flags.profile;
  arch : Isa.Insn.arch;
  strategy : string;
  budget : int;
  lz_level : Compress.Lz.level;
  seed : int;
  objective : Search.Objective.spec;
}

type job_summary = {
  job_id : int;
  benchmark : string;
  profile : string;
  arch : string;
  strategy : string;
  objectives : string list;
  iterations : int;
  best_ncd : float;
  best_vector : bool array;
  best_scores : float array;
  front : (bool array * float array) list;
  functional_ok : bool;
  wall_seconds : float;
  cache_hits : int;
  compilations : int;
  ncd_cache_hits : int;
  ncd_cache_misses : int;
  incr_hits : int;
  incr_misses : int;
  store_hits : int;
  store_misses : int;
  objective_hits : int;
  objective_misses : int;
}

type t = {
  session : Session.t;
  queue : job Queue.t;
  mutable next_id : int;
  mutable completed : job_summary list;  (* newest first *)
}

let create ?(jobs = 1) ?store_dir ?store_max_bytes ?memo_max_bytes () =
  let store = Option.map (Store.create ?max_bytes:store_max_bytes) store_dir in
  {
    session = Session.create ~jobs ?memo_max_bytes ?store ();
    queue = Queue.create ();
    next_id = 1;
    completed = [];
  }

let session t = t.session
let completed t = List.rev t.completed
let queue_depth t = Queue.length t.queue

let close t = Session.close t.session

(* ------------------------------------------------------------------ *)
(* JSON emission (hand-rolled; responses are flat and small)           *)
(* ------------------------------------------------------------------ *)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let obj fields = "{" ^ String.concat "," fields ^ "}"
let arr items = "[" ^ String.concat "," items ^ "]"
let jstr k v = Printf.sprintf "\"%s\":\"%s\"" k (escape v)
let jint k v = Printf.sprintf "\"%s\":%d" k v
let jbool k v = Printf.sprintf "\"%s\":%b" k v

(* %.17g round-trips every finite double and is a valid JSON number *)
let jfloat k v = Printf.sprintf "\"%s\":%.17g" k v

let error_response msg = obj [ jbool "ok" false; jstr "error" msg ]

(* ------------------------------------------------------------------ *)
(* Job parsing                                                         *)
(* ------------------------------------------------------------------ *)

let profile_of_string name =
  List.find_opt
    (fun p -> p.Toolchain.Flags.profile_name = name)
    Toolchain.Flags.profiles
  |> function
  | Some p -> Ok p
  | None -> (
    (* accept the CLI's short names too *)
    match name with
    | "gcc" -> Ok Toolchain.Flags.gcc
    | "llvm" -> Ok Toolchain.Flags.llvm
    | _ -> Error ("unknown profile " ^ name))

let arch_of_string name =
  let archs = [ Isa.Insn.X86_64; Isa.Insn.X86_32; Isa.Insn.Arm; Isa.Insn.Mips ] in
  match List.find_opt (fun a -> Isa.Insn.arch_name a = name) archs with
  | Some a -> Ok a
  | None -> Error ("unknown arch " ^ name)

let parse_job t tokens =
  let bench = ref "462.libquantum" in
  let profile = ref "gcc" in
  let arch = ref "x86-64" in
  let strategy = ref "ga" in
  let budget = ref 500 in
  let lz_level = ref None in
  let seed = ref 1 in
  let objective = ref Search.Objective.default in
  let bad = ref None in
  List.iter
    (fun tok ->
      match String.index_opt tok '=' with
      | None -> bad := Some ("malformed parameter " ^ tok ^ " (want key=value)")
      | Some i -> (
        let k = String.sub tok 0 i in
        let v = String.sub tok (i + 1) (String.length tok - i - 1) in
        let int_param r =
          match int_of_string_opt v with
          | Some n -> r := n
          | None -> bad := Some (k ^ " wants an integer, got " ^ v)
        in
        match k with
        | "bench" -> bench := v
        | "profile" -> profile := v
        | "arch" -> arch := v
        | "strategy" -> strategy := v
        | "budget" | "iterations" -> int_param budget
        | "seed" -> int_param seed
        | "lz-level" | "lz_level" -> (
          match Compress.Lz.level_of_string v with
          | l -> lz_level := Some l
          | exception Invalid_argument m -> bad := Some m)
        | "objective" | "objectives" -> (
          match Search.Objective.parse v with
          | spec -> objective := spec
          | exception Invalid_argument m -> bad := Some m)
        | _ -> bad := Some ("unknown parameter " ^ k)))
    tokens;
  match !bad with
  | Some msg -> Error msg
  | None -> (
    match Corpus.find !bench with
    | exception Not_found -> Error ("unknown benchmark " ^ !bench)
    | bench -> (
      match profile_of_string !profile with
      | Error e -> Error e
      | Ok profile -> (
        match arch_of_string !arch with
        | Error e -> Error e
        | Ok arch ->
          if not (List.mem !strategy Search.all_names) then
            Error ("unknown strategy " ^ !strategy)
          else begin
            let id = t.next_id in
            t.next_id <- id + 1;
            Ok
              {
                id;
                bench;
                profile;
                arch;
                strategy = !strategy;
                budget = max 1 !budget;
                lz_level =
                  (match !lz_level with
                  | Some l -> l
                  | None -> Compress.Lz.default_level ());
                seed = !seed;
                objective = !objective;
              }
          end)))

(* ------------------------------------------------------------------ *)
(* Running jobs                                                        *)
(* ------------------------------------------------------------------ *)

let jfloats k vs =
  Printf.sprintf "\"%s\":%s" k
    (arr (List.map (Printf.sprintf "%.17g") (Array.to_list vs)))

let front_json front =
  arr
    (List.map
       (fun (v, f) ->
         obj
           [
             jstr "vector" (Database.vector_to_string v);
             jfloats "fitness" f;
           ])
       front)

let summary_fields s =
  [
    jint "job" s.job_id;
    jstr "benchmark" s.benchmark;
    jstr "profile" s.profile;
    jstr "arch" s.arch;
    jstr "strategy" s.strategy;
    jstr "objectives" (String.concat "," s.objectives);
    jint "iterations" s.iterations;
    jfloat "best_ncd" s.best_ncd;
    jstr "best_vector" (Database.vector_to_string s.best_vector);
    jfloats "best_scores" s.best_scores;
    jint "front_size" (List.length s.front);
    Printf.sprintf "\"front\":%s" (front_json s.front);
    jbool "functional_ok" s.functional_ok;
    jfloat "wall_seconds" s.wall_seconds;
    jint "cache_hits" s.cache_hits;
    jint "compilations" s.compilations;
    jint "ncd_cache_hits" s.ncd_cache_hits;
    jint "ncd_cache_misses" s.ncd_cache_misses;
    jint "incr_hits" s.incr_hits;
    jint "incr_misses" s.incr_misses;
    jint "store_hits" s.store_hits;
    jint "store_misses" s.store_misses;
    jint "objective_hits" s.objective_hits;
    jint "objective_misses" s.objective_misses;
  ]

let run_job t (j : job) =
  Telemetry.set_gauge "serve.queue_depth" (float_of_int (Queue.length t.queue));
  match
    (* every span a job records on the daemon thread carries its id *)
    Telemetry.with_ambient_attrs
      [ ("job", string_of_int j.id) ]
      (fun () ->
        Telemetry.with_span "serve.job"
          ~attrs:
            [
              ("bench", j.bench.Corpus.bname);
              ("profile", j.profile.Toolchain.Flags.profile_name);
              ("strategy", j.strategy);
            ]
          (fun () ->
            Tuner.tune ~arch:j.arch
              ~termination:
                { Search.default_termination with max_evaluations = j.budget }
              ~seed:j.seed
              ~strategy:(Search.of_name j.strategy)
              ~session:t.session ~lz_level:j.lz_level ~objectives:j.objective
              ~profile:j.profile j.bench))
  with
  | exception e ->
    Telemetry.add_count "serve.job_failed";
    error_response
      (Printf.sprintf "job %d failed: %s" j.id (Printexc.to_string e))
  | r ->
    let s =
      {
        job_id = j.id;
        benchmark = r.Tuner.benchmark;
        profile = r.profile_name;
        arch = Isa.Insn.arch_name r.arch;
        strategy = r.strategy;
        objectives = r.objectives;
        iterations = r.iterations;
        best_ncd = r.best_ncd;
        best_vector = r.best_vector;
        best_scores = r.best_scores;
        front = r.front;
        functional_ok = r.functional_ok;
        wall_seconds = r.wall_seconds;
        cache_hits = r.cache_hits;
        compilations = r.compilations;
        ncd_cache_hits = r.ncd_cache_hits;
        ncd_cache_misses = r.ncd_cache_misses;
        incr_hits = r.incr_hits;
        incr_misses = r.incr_misses;
        store_hits = r.store_hits;
        store_misses = r.store_misses;
        objective_hits = r.objective_hits;
        objective_misses = r.objective_misses;
      }
    in
    t.completed <- s :: t.completed;
    Telemetry.add_count "serve.job_done";
    obj (jbool "ok" true :: summary_fields s)

let drain t =
  let responses = ref [] in
  while not (Queue.is_empty t.queue) do
    let j = Queue.pop t.queue in
    responses := run_job t j :: !responses
  done;
  Telemetry.set_gauge "serve.queue_depth" 0.0;
  List.rev !responses

(* ------------------------------------------------------------------ *)
(* Status                                                              *)
(* ------------------------------------------------------------------ *)

let status_response t =
  let memo = Session.memo t.session in
  let sc_hits, sc_misses = Session.sizecache_counts t.session in
  let store_fields =
    match Session.store t.session with
    | None -> [ jbool "store" false ]
    | Some st ->
      [
        Printf.sprintf "\"store\":%s"
          (obj
             [
               jint "hits" (Store.hits st);
               jint "misses" (Store.misses st);
               jint "evictions" (Store.evictions st);
               jint "quarantined" (Store.quarantined st);
               jint "entries" (Store.length st);
               jint "bytes" (Store.bytes st);
               jint "max_bytes" (Store.max_bytes st);
             ]);
      ]
  in
  obj
    ([
       jbool "ok" true;
       jint "queued" (Queue.length t.queue);
       Printf.sprintf "\"queue\":%s"
         (arr
            (Queue.fold
               (fun acc j ->
                 obj [ jint "job" j.id; jstr "benchmark" j.bench.Corpus.bname ]
                 :: acc)
               [] t.queue
            |> List.rev));
       jint "completed" (List.length t.completed);
       Printf.sprintf "\"jobs\":%s"
         (arr (List.rev_map (fun s -> obj (summary_fields s)) t.completed));
       Printf.sprintf "\"memo\":%s"
         (obj
            [
              jint "hits" (Memo.hits memo);
              jint "misses" (Memo.misses memo);
              jint "evictions" (Memo.evictions memo);
              jint "entries" (Memo.length memo);
              jint "bytes" (Memo.bytes memo);
            ]);
       Printf.sprintf "\"sizecache\":%s"
         (obj [ jint "hits" sc_hits; jint "misses" sc_misses ]);
       (* session-wide multi-objective traffic: per-axis memo counters
          summed over every completed job (scalar-NCD jobs contribute 0) *)
       Printf.sprintf "\"objective\":%s"
         (obj
            [
              jint "hits"
                (List.fold_left
                   (fun acc s -> acc + s.objective_hits)
                   0 t.completed);
              jint "misses"
                (List.fold_left
                   (fun acc s -> acc + s.objective_misses)
                   0 t.completed);
            ]);
       Printf.sprintf "\"incremental\":%s"
         (obj
            [
              jint "hits" (Incremental.hits (Session.incremental t.session));
              jint "misses"
                (Incremental.misses (Session.incremental t.session));
            ]);
       jint "live_domains" (Parallel.Pool.live_domains ());
     ]
    @ store_fields)

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)
(* ------------------------------------------------------------------ *)

let split_words line =
  String.split_on_char ' ' line |> List.filter (fun s -> s <> "")

let handle_line t line =
  match split_words line with
  | [] -> ([], true)
  | verb :: _ when String.length verb > 0 && verb.[0] = '#' -> ([], true)
  | "quit" :: _ -> ([ obj [ jbool "ok" true; jstr "bye" "bintuner" ] ], false)
  | "status" :: _ -> ([ status_response t ], true)
  | "submit" :: params -> (
    match parse_job t params with
    | Error msg -> ([ error_response msg ], true)
    | Ok j ->
      Queue.push j t.queue;
      Telemetry.set_gauge "serve.queue_depth"
        (float_of_int (Queue.length t.queue));
      ( [
          obj
            [
              jbool "ok" true;
              jint "job" j.id;
              jint "queued" (Queue.length t.queue);
            ];
        ],
        true ))
  | "run" :: _ -> (drain t, true)
  | "tune" :: params -> (
    match parse_job t params with
    | Error msg -> ([ error_response msg ], true)
    | Ok j ->
      Queue.push j t.queue;
      (drain t, true))
  | verb :: _ ->
    ([ error_response ("unknown request " ^ verb) ], true)

(* ------------------------------------------------------------------ *)
(* Transports                                                          *)
(* ------------------------------------------------------------------ *)

let serve_channel t ic oc =
  let continue = ref true in
  while !continue do
    match input_line ic with
    | exception End_of_file -> continue := false
    | line ->
      let responses, keep_going = handle_line t line in
      List.iter
        (fun r ->
          output_string oc r;
          output_char oc '\n')
        responses;
      flush oc;
      if not keep_going then continue := false
  done

let serve_unix t path =
  (try Sys.remove path with Sys_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 8;
      let continue = ref true in
      while !continue do
        let fd, _ = Unix.accept sock in
        let ic = Unix.in_channel_of_descr fd in
        let oc = Unix.out_channel_of_descr fd in
        (* one connection at a time: jobs are sequential anyway, and a
           dropped client must not take the daemon down *)
        (try
           let rec loop () =
             match input_line ic with
             | exception End_of_file -> ()
             | line ->
               let responses, keep_going = handle_line t line in
               List.iter
                 (fun r ->
                   output_string oc r;
                   output_char oc '\n')
                 responses;
               flush oc;
               if keep_going then loop () else continue := false
           in
           loop ()
         with Sys_error _ | Unix.Unix_error _ -> ());
        (try flush oc with Sys_error _ -> ());
        try Unix.close fd with Unix.Unix_error _ -> ()
      done)
