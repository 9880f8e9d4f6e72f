(* Unit + property tests for the util library. *)

let check_float = Alcotest.(check (float 1e-9))

let test_rng_determinism () =
  let a = Util.Rng.create 42 and b = Util.Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Util.Rng.int64 a) (Util.Rng.int64 b)
  done

let test_rng_seeds_differ () =
  let a = Util.Rng.create 1 and b = Util.Rng.create 2 in
  let xs = List.init 8 (fun _ -> Util.Rng.int64 a) in
  let ys = List.init 8 (fun _ -> Util.Rng.int64 b) in
  Alcotest.(check bool) "different streams" true (xs <> ys)

let test_rng_split_independent () =
  let a = Util.Rng.create 7 in
  let b = Util.Rng.split a in
  let xs = List.init 8 (fun _ -> Util.Rng.int64 a) in
  let ys = List.init 8 (fun _ -> Util.Rng.int64 b) in
  Alcotest.(check bool) "split streams differ" true (xs <> ys)

let test_rng_copy () =
  let a = Util.Rng.create 9 in
  ignore (Util.Rng.int64 a);
  let b = Util.Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Util.Rng.int64 a)
    (Util.Rng.int64 b)

let test_mean_median () =
  check_float "mean" 2.5 (Util.Stats.mean [ 1.0; 2.0; 3.0; 4.0 ]);
  check_float "median even" 2.5 (Util.Stats.median [ 1.0; 2.0; 3.0; 4.0 ]);
  check_float "median odd" 3.0 (Util.Stats.median [ 5.0; 1.0; 3.0 ]);
  check_float "mean empty" 0.0 (Util.Stats.mean [])

let test_min_max_median () =
  let mn, mx, md = Util.Stats.min_max_median [ 3.0; 1.0; 7.0; 5.0 ] in
  check_float "min" 1.0 mn;
  check_float "max" 7.0 mx;
  check_float "median" 4.0 md

let test_pearson () =
  check_float "perfect" 1.0
    (Util.Stats.pearson [ 1.0; 2.0; 3.0 ] [ 10.0; 20.0; 30.0 ]);
  check_float "inverse" (-1.0)
    (Util.Stats.pearson [ 1.0; 2.0; 3.0 ] [ 3.0; 2.0; 1.0 ]);
  check_float "constant" 0.0 (Util.Stats.pearson [ 1.0; 1.0 ] [ 2.0; 3.0 ])

let test_jaccard () =
  check_float "overlap" 0.5 (Util.Stats.jaccard compare [ 1; 2; 3 ] [ 2; 3; 4 ]);
  check_float "empty" 1.0 (Util.Stats.jaccard compare ([] : int list) []);
  check_float "disjoint" 0.0 (Util.Stats.jaccard compare [ 1 ] [ 2 ]);
  check_float "duplicates collapse" 1.0
    (Util.Stats.jaccard compare [ 1; 1; 2 ] [ 2; 2; 1 ])

let test_cdf () =
  let c = Util.Stats.cdf [ 1.0; 1.0; 2.0; 4.0 ] in
  Alcotest.(check int) "distinct points" 3 (List.length c);
  let _, frac1 = List.hd c in
  check_float "first point fraction" 0.5 frac1

let test_percentile () =
  check_float "p0" 1.0 (Util.Stats.percentile [ 1.0; 2.0; 3.0 ] 0.0);
  check_float "p100" 3.0 (Util.Stats.percentile [ 1.0; 2.0; 3.0 ] 1.0);
  check_float "p50" 2.0 (Util.Stats.percentile [ 1.0; 2.0; 3.0 ] 0.5)

let test_percentile_clamped () =
  (* out-of-range ranks used to compute an index outside the sorted
     array: p > 1 read past the end, p < 0 crashed on a negative index *)
  check_float "p>1 clamps to max" 3.0 (Util.Stats.percentile [ 1.0; 2.0; 3.0 ] 1.5);
  check_float "p<0 clamps to min" 1.0 (Util.Stats.percentile [ 1.0; 2.0; 3.0 ] (-0.3));
  check_float "nan clamps to min" 1.0 (Util.Stats.percentile [ 1.0; 2.0; 3.0 ] Float.nan);
  check_float "singleton, any p" 7.0 (Util.Stats.percentile [ 7.0 ] 99.0)

let test_render_table () =
  let t =
    Util.Render.table ~header:[ "a"; "bb" ] ~rows:[ [ "1"; "2" ]; [ "333" ] ]
  in
  Alcotest.(check bool) "contains rule" true (String.contains t '-');
  Alcotest.(check bool) "contains cell" true
    (String.length t > 0 && String.contains t '3')

let prop_pearson_bounded =
  QCheck.Test.make ~name:"pearson in [-1,1]" ~count:200
    QCheck.(pair (list_of_size Gen.(2 -- 20) (float_bound_exclusive 100.0))
              (list_of_size Gen.(2 -- 20) (float_bound_exclusive 100.0)))
    (fun (xs, ys) ->
      let n = min (List.length xs) (List.length ys) in
      let take n l = List.filteri (fun i _ -> i < n) l in
      let r = Util.Stats.pearson (take n xs) (take n ys) in
      r >= -1.0000001 && r <= 1.0000001)

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentile monotone" ~count:200
    QCheck.(list_of_size Gen.(1 -- 30) (float_bound_exclusive 1000.0))
    (fun xs ->
      Util.Stats.percentile xs 0.2 <= Util.Stats.percentile xs 0.8)

(* --- Util.Lru against a naive list-based model -------------------- *)

(* Values double as weights, so the model and the cache can never
   disagree on what an entry costs. *)
module Lru_model = struct
  type t = {
    budget : int;
    backing : (string, int) Hashtbl.t option;
    mutable order : (string * int) list;  (* most recently used first *)
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
    mutable loads : int;
    mutable saves : int;
  }

  let create budget backing =
    {
      budget;
      backing;
      order = [];
      hits = 0;
      misses = 0;
      evictions = 0;
      loads = 0;
      saves = 0;
    }

  let weight m = List.fold_left (fun acc (_, w) -> acc + w) 0 m.order

  let admit m k v =
    if v <= m.budget && not (List.mem_assoc k m.order) then begin
      m.order <- (k, v) :: m.order;
      while weight m > m.budget do
        m.order <- List.rev (List.tl (List.rev m.order));
        m.evictions <- m.evictions + 1
      done
    end

  let add m k v =
    admit m k v;
    Option.iter
      (fun b ->
        m.saves <- m.saves + 1;
        Hashtbl.replace b k v)
      m.backing

  let find m k =
    match List.assoc_opt k m.order with
    | Some v ->
      m.hits <- m.hits + 1;
      m.order <- (k, v) :: List.remove_assoc k m.order;
      Some v
    | None -> (
      m.misses <- m.misses + 1;
      match m.backing with
      | None -> None
      | Some b ->
        m.loads <- m.loads + 1;
        let v = Hashtbl.find_opt b k in
        Option.iter (admit m k) v;
        v)

  let remove m k = m.order <- List.remove_assoc k m.order
end

type lru_op =
  | Find of string
  | Find_or_add of string * int
  | Add of string * int
  | Remove of string

let show_lru_op = function
  | Find k -> "find " ^ k
  | Find_or_add (k, w) -> Printf.sprintf "find_or_add %s %d" k w
  | Add (k, w) -> Printf.sprintf "add %s %d" k w
  | Remove k -> "remove " ^ k

let lru_case =
  let open QCheck.Gen in
  let key = map (fun i -> String.make 1 (Char.chr (97 + i))) (int_bound 5) in
  let w = int_range 1 12 in
  let op =
    frequency
      [
        (3, map (fun k -> Find k) key);
        (3, map2 (fun k w -> Find_or_add (k, w)) key w);
        (2, map2 (fun k w -> Add (k, w)) key w);
        (1, map (fun k -> Remove k) key);
      ]
  in
  QCheck.make
    ~print:(fun (budget, backed, ops) ->
      Printf.sprintf "budget %d, backing %b: %s" budget backed
        (String.concat "; " (List.map show_lru_op ops)))
    (triple (int_bound 30) bool (list_size (int_bound 60) op))

let prop_lru_model =
  QCheck.Test.make ~name:"lru = list model" ~count:500 lru_case
    (fun (budget, backed, ops) ->
      let model =
        Lru_model.create budget (if backed then Some (Hashtbl.create 8) else None)
      in
      (* the real cache's backing tier: its own table, instrumented *)
      let store = Hashtbl.create 8 and loads = ref 0 and saves = ref 0 in
      let backing =
        {
          Util.Lru.load =
            (fun k ->
              incr loads;
              Hashtbl.find_opt store k);
          save =
            (fun k v ->
              incr saves;
              Hashtbl.replace store k v);
        }
      in
      let lru =
        Util.Lru.create ?backing:(if backed then Some backing else None)
          ~budget ~weight:(fun _ v -> v) ()
      in
      let computed = ref 0 in
      let step op =
        match op with
        | Find k -> Util.Lru.find lru k = Lru_model.find model k
        | Find_or_add (k, w) ->
          let before = !computed in
          let got =
            Util.Lru.find_or_add lru k (fun () ->
                incr computed;
                w)
          in
          let total_miss, want =
            match Lru_model.find model k with
            | Some v -> (false, v)
            | None ->
              Lru_model.add model k w;
              (true, w)
          in
          (* the thunk runs exactly on a total miss *)
          got = want && !computed - before = Bool.to_int total_miss
        | Add (k, w) ->
          Util.Lru.add lru k w;
          Lru_model.add model k w;
          true
        | Remove k ->
          Util.Lru.remove lru k;
          Lru_model.remove model k;
          true
      in
      List.for_all
        (fun op ->
          let ok = step op in
          let s = Util.Lru.stats lru in
          ok
          && Util.Lru.keys lru = List.map fst model.order
          && s.hits = model.hits && s.misses = model.misses
          && s.evictions = model.evictions
          && s.length = List.length model.order
          && s.weight = Lru_model.weight model
          (* values are weights, so this also keeps out oversized entries *)
          && s.weight <= budget
          (* the backing tier is read exactly on misses, written on
             every exact insert *)
          && !loads = model.loads
          && !saves = model.saves
          && ((not backed) || !loads = s.misses))
        ops)

(* Two domains race find_or_add over the same keys: every lookup is
   counted exactly once, and the first insert of a key is the one that
   stays — a hit can only ever return the resident value. *)
let test_lru_race () =
  let n = 20_000 in
  let lru = Util.Lru.create ~budget:max_int ~weight:(fun _ _ -> 1) () in
  let go = Atomic.make false in
  let run id () =
    while not (Atomic.get go) do
      Domain.cpu_relax ()
    done;
    Array.init n (fun i -> Util.Lru.find_or_add lru (string_of_int i) (fun () -> id))
  in
  let d0 = Domain.spawn (run 0) and d1 = Domain.spawn (run 1) in
  Atomic.set go true;
  let r0 = Domain.join d0 and r1 = Domain.join d1 in
  let s = Util.Lru.stats lru in
  Alcotest.(check int) "hits + misses = lookups" (2 * n) (s.hits + s.misses);
  Alcotest.(check int) "every key resident once" n s.length;
  for i = 0 to n - 1 do
    let key = string_of_int i in
    let resident = Option.get (Util.Lru.touch lru key) in
    (* a domain either computed its own id or was served the resident one *)
    Alcotest.(check bool) "domain 0 saw its own value or the resident one" true
      (r0.(i) = 0 || r0.(i) = resident);
    Alcotest.(check bool) "domain 1 saw its own value or the resident one" true
      (r1.(i) = 1 || r1.(i) = resident);
    Util.Lru.add lru key 7;
    Alcotest.(check (option int)) "a later insert keeps the first value"
      (Some resident) (Util.Lru.touch lru key)
  done

let tests =
  [
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng seeds differ" `Quick test_rng_seeds_differ;
    Alcotest.test_case "rng split" `Quick test_rng_split_independent;
    Alcotest.test_case "rng copy" `Quick test_rng_copy;
    Alcotest.test_case "mean/median" `Quick test_mean_median;
    Alcotest.test_case "min-max-median" `Quick test_min_max_median;
    Alcotest.test_case "pearson" `Quick test_pearson;
    Alcotest.test_case "jaccard" `Quick test_jaccard;
    Alcotest.test_case "cdf" `Quick test_cdf;
    Alcotest.test_case "percentile" `Quick test_percentile;
    Alcotest.test_case "percentile clamped" `Quick test_percentile_clamped;
    Alcotest.test_case "render table" `Quick test_render_table;
    QCheck_alcotest.to_alcotest prop_pearson_bounded;
    QCheck_alcotest.to_alcotest prop_percentile_monotone;
    QCheck_alcotest.to_alcotest prop_lru_model;
    Alcotest.test_case "lru 2-domain race" `Quick test_lru_race;
  ]
