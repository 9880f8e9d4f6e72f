(* Differential compiler fuzzing: random well-formed MinC programs must
   behave identically under the -O0 reference interpreter and under every
   optimization configuration on the VX virtual machine.

   The sequential sweeps additionally run with the between-pass IR
   verifier enabled ([with_verifier]), so every fuzzer-generated program
   must verify after every pass prefix of every compile — a structural
   oracle on top of the behavioural one.  The pooled oracle is left
   alone: [Toolchain.Pipeline.verify_default] is a plain global and must
   not be flipped around worker domains. *)

let with_verifier f =
  Toolchain.Pipeline.verify_default := true;
  Fun.protect
    ~finally:(fun () -> Toolchain.Pipeline.verify_default := false)
    f

let behaviour_ir ir input =
  let r = Vir.Interp.run ~fuel:3_000_000 ir ~input in
  Printf.sprintf "%s|%d" (Vir.Interp.output_to_string r.output) r.return_value

let behaviour_vm bin input =
  let r = Vm.Machine.run ~fuel:6_000_000 bin ~input in
  Printf.sprintf "%s|%d"
    (Vir.Interp.output_to_string r.Vm.Machine.output)
    r.Vm.Machine.return_value

let inputs = [ [| 0 |]; [| 5 |]; [| 123 |] ]

let check_seed ~preset ~profile seed =
  let prog = Fuzzgen.generate seed in
  Minic.Sema.check prog;
  let ir = Vir.Lower.lower_program prog in
  match List.map (behaviour_ir ir) inputs with
  | exception Vir.Interp.Out_of_fuel -> true (* pathological runtime: skip *)
  | reference ->
    let bin = Toolchain.Pipeline.compile_preset profile preset prog in
    List.map (behaviour_vm bin) inputs = reference

let test_fuzz_presets () =
  (* a fixed sweep across seeds, presets and profiles *)
  with_verifier @@ fun () ->
  List.iter
    (fun seed ->
      List.iter
        (fun (profile, preset) ->
          Alcotest.(check bool)
            (Printf.sprintf "seed %d %s %s" seed
               profile.Toolchain.Flags.profile_name preset)
            true
            (check_seed ~preset ~profile seed))
        [
          (Toolchain.Flags.gcc, "O0");
          (Toolchain.Flags.gcc, "O2");
          (Toolchain.Flags.gcc, "O3");
          (Toolchain.Flags.llvm, "O3");
          (Toolchain.Flags.gcc, "Os");
        ])
    (List.init 12 (fun i -> i * 37 + 1))

let prop_fuzz_random_flags =
  QCheck.Test.make ~name:"fuzzed programs under random flag vectors" ~count:25
    QCheck.(pair small_nat small_nat)
    (fun (seed, vseed) ->
      with_verifier @@ fun () ->
      let prog = Fuzzgen.generate (seed + 1000) in
      let ir = Vir.Lower.lower_program prog in
      match List.map (behaviour_ir ir) inputs with
      | exception Vir.Interp.Out_of_fuel -> true
      | reference ->
        let profile =
          if vseed mod 2 = 0 then Toolchain.Flags.gcc else Toolchain.Flags.llvm
        in
        let rng = Util.Rng.create (vseed * 13 + 5) in
        let n = Array.length profile.flags in
        let v =
          Toolchain.Constraints.repair profile rng
            (Array.init n (fun _ -> Util.Rng.bool rng))
        in
        let bin = Toolchain.Pipeline.compile_flags profile v prog in
        List.map (behaviour_vm bin) inputs = reference)

(* The pooled differential oracle: per fuzzed program, six random
   repaired flag vectors are compiled and behaviour-checked as one
   [Parallel.Pool] batch.  Each candidate gets its own RNG stream, split
   from a master generator {e before} dispatch, so the work is both
   thread-safe and schedule-independent — the pooled verdicts must equal
   an inline sequential run using identically derived streams. *)
let fuzz_candidates ~master_seed prog =
  let ir = Vir.Lower.lower_program prog in
  match List.map (behaviour_ir ir) inputs with
  | exception Vir.Interp.Out_of_fuel -> None
  | reference ->
    let master = Util.Rng.create master_seed in
    let jobs =
      Array.init 6 (fun i ->
          let rng = Util.Rng.split master in
          let profile =
            if i mod 2 = 0 then Toolchain.Flags.gcc else Toolchain.Flags.llvm
          in
          (profile, rng))
    in
    let check (profile, rng) =
      let n = Array.length profile.Toolchain.Flags.flags in
      let v =
        Toolchain.Constraints.repair profile rng
          (Array.init n (fun _ -> Util.Rng.bool rng))
      in
      let bin = Toolchain.Pipeline.compile_flags profile v prog in
      List.map (behaviour_vm bin) inputs = reference
    in
    Some (jobs, check)

let test_fuzz_parallel_oracle () =
  Parallel.Pool.with_pool 4 (fun pool ->
      List.iter
        (fun seed ->
          let prog = Fuzzgen.generate seed in
          Minic.Sema.check prog;
          match fuzz_candidates ~master_seed:(seed * 11 + 1) prog with
          | None -> () (* pathological runtime: skip *)
          | Some (jobs, check) ->
            let pooled = Parallel.Pool.map ~chunk_size:1 pool check jobs in
            Array.iteri
              (fun i ok ->
                Alcotest.(check bool)
                  (Printf.sprintf "seed %d candidate %d" seed i)
                  true ok)
              pooled;
            (* identically derived streams, run inline: the pool must not
               have perturbed any verdict *)
            (match fuzz_candidates ~master_seed:(seed * 11 + 1) prog with
            | None -> Alcotest.fail "reference became non-terminating"
            | Some (jobs', check') ->
              Alcotest.(check (array bool))
                (Printf.sprintf "seed %d pooled = sequential" seed)
                (Array.map check' jobs') pooled))
        (List.init 8 (fun i -> (i * 101) + 3)))

let test_fuzz_all_arches () =
  with_verifier @@ fun () ->
  List.iter
    (fun seed ->
      let prog = Fuzzgen.generate seed in
      let ir = Vir.Lower.lower_program prog in
      match List.map (behaviour_ir ir) inputs with
      | exception Vir.Interp.Out_of_fuel -> ()
      | reference ->
        List.iter
          (fun arch ->
            let bin =
              Toolchain.Pipeline.compile_preset Toolchain.Flags.llvm ~arch "O2"
                prog
            in
            Alcotest.(check (list string))
              (Printf.sprintf "seed %d %s" seed (Isa.Insn.arch_name arch))
              reference
              (List.map (behaviour_vm bin) inputs))
          Isa.Insn.all_arches)
    [ 2026; 7777; 31415 ]

(* Incremental-vs-scratch on fuzzed programs: two random flag vectors of
   the same profile compile through one shared store — the second
   typically reuses transitions and function states the first
   published.  The scratch compiles run under the IR verifier, which
   checks every pass; the store compiles run without it, because a
   verified compile bypasses the store.  Every binary must equal its
   scratch compile, and must behave like the -O0 reference. *)
let prop_fuzz_incremental_vs_scratch =
  QCheck.Test.make ~name:"fuzzed incremental compiles equal scratch" ~count:15
    QCheck.(pair small_nat small_nat)
    (fun (seed, vseed) ->
      let prog = Fuzzgen.generate (seed + 4000) in
      let ir = Vir.Lower.lower_program prog in
      match List.map (behaviour_ir ir) inputs with
      | exception Vir.Interp.Out_of_fuel -> true
      | reference ->
        let profile =
          if vseed mod 2 = 0 then Toolchain.Flags.gcc else Toolchain.Flags.llvm
        in
        let rng = Util.Rng.create ((vseed * 29) + 11) in
        let n = Array.length profile.Toolchain.Flags.flags in
        let vector () =
          Toolchain.Constraints.repair profile rng
            (Array.init n (fun _ -> Util.Rng.bool rng))
        in
        let v1 = vector () and v2 = vector () in
        let store = Bintuner.Incremental.create () in
        let snapshot = Bintuner.Incremental.snapshot_store store in
        List.for_all
          (fun v ->
            let scratch =
              with_verifier (fun () ->
                  Toolchain.Pipeline.compile_flags profile v prog)
            in
            let inc =
              Toolchain.Pipeline.compile_flags profile ~snapshot v prog
            in
            inc = scratch && List.map (behaviour_vm inc) inputs = reference)
          [ v1; v2; v1 ])

(* Each new optimizer pass (SCCP, GVN, dominator LICM) — alone and all
   together — on top of O2, for both profiles.  [with_verifier] makes the
   pipeline structurally verify the IR after {e every} pass prefix of
   every compile, and the VM run is the behavioural differential on top.
   The Requires-dependencies of each flag are enabled explicitly so the
   vectors stay constraint-valid by construction. *)
let new_pass_flag_sets profile =
  if profile.Toolchain.Flags.profile_name = "gcc-10.2" then
    [
      [ "-ftree-ccp" ];
      [ "-ftree-pre"; "-frerun-cse-after-loop" ];
      [ "-ftree-loop-im"; "-fmove-loop-invariants" ];
      [
        "-ftree-ccp"; "-ftree-pre"; "-frerun-cse-after-loop";
        "-ftree-loop-im"; "-fmove-loop-invariants";
      ];
    ]
  else
    [
      [ "-fsccp" ];
      [ "-fnewgvn"; "-flate-cse" ];
      [ "-flicm-aggressive"; "-flicm" ];
      [ "-fsccp"; "-fnewgvn"; "-flate-cse"; "-flicm-aggressive"; "-flicm" ];
    ]

let test_fuzz_new_passes () =
  with_verifier @@ fun () ->
  List.iter
    (fun seed ->
      let prog = Fuzzgen.generate seed in
      Minic.Sema.check prog;
      let ir = Vir.Lower.lower_program prog in
      match List.map (behaviour_ir ir) inputs with
      | exception Vir.Interp.Out_of_fuel -> () (* pathological runtime: skip *)
      | reference ->
        List.iter
          (fun profile ->
            let base = Option.get (Toolchain.Flags.preset profile "O2") in
            List.iter
              (fun names ->
                let v = Array.copy base in
                List.iter
                  (fun n -> v.(Toolchain.Flags.flag_index profile n) <- true)
                  names;
                Alcotest.(check bool)
                  (Printf.sprintf "vector valid: %s" (String.concat "," names))
                  true
                  (Toolchain.Constraints.valid profile v);
                let bin = Toolchain.Pipeline.compile_flags profile v prog in
                Alcotest.(check (list string))
                  (Printf.sprintf "seed %d %s O2+%s" seed
                     profile.Toolchain.Flags.profile_name
                     (String.concat "," names))
                  reference
                  (List.map (behaviour_vm bin) inputs))
              (new_pass_flag_sets profile))
          [ Toolchain.Flags.gcc; Toolchain.Flags.llvm ])
    (List.init 10 (fun i -> (i * 53) + 7))

let tests =
  [
    Alcotest.test_case "fuzz presets" `Slow test_fuzz_presets;
    Alcotest.test_case "fuzz new optimizer passes" `Slow test_fuzz_new_passes;
    QCheck_alcotest.to_alcotest prop_fuzz_random_flags;
    QCheck_alcotest.to_alcotest prop_fuzz_incremental_vs_scratch;
    Alcotest.test_case "fuzz parallel oracle" `Slow test_fuzz_parallel_oracle;
    Alcotest.test_case "fuzz all arches" `Quick test_fuzz_all_arches;
  ]
