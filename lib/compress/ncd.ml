let combine cx cy cxy =
  let mn = min cx cy and mx = max cx cy in
  if mx = 0 then 0.0 else float_of_int (cxy - mn) /. float_of_int mx

let distance ?level x y =
  combine
    (Lz.compressed_size ?level x)
    (Lz.compressed_size ?level y)
    (Lz.compressed_size_pair ?level x y)

let distance_via cache x y =
  combine (Sizecache.size cache x) (Sizecache.size cache y)
    (Sizecache.size_pair cache x y)

(* The early-exit scorer: [C(x·y) >= max(C(x), C(y))] means a candidate
   whose concatenation term provably cannot exceed the size an
   [incumbent]-beating NCD would require can stop compressing the pair
   the moment that is proven.  [cap] is the largest C(x·y) still scoring
   at or below the incumbent; the capped compressor aborts once its
   over-estimate of the final size is within [cap], and the returned
   score for a pruned candidate — its bound's NCD, clamped to the
   incumbent — is exact in the only respect that matters: it cannot beat
   the incumbent, and neither can the candidate.  Winners always run to
   completion and score exactly, so argmax/best over any batch is
   preserved.  Pruned bounds never enter the size cache. *)
let distance_bounded cache ~incumbent x y =
  let cx = Sizecache.size cache x and cy = Sizecache.size cache y in
  match Sizecache.peek_pair cache x y with
  | Some cxy -> combine cx cy cxy
  | None ->
    let mn = min cx cy and mx = max cx cy in
    let cap =
      if mx = 0 || incumbent < 0.0 then -1 (* nothing useful to prune *)
      else begin
        (* the boundary of [combine cx cy c <= incumbent], solved
           directly and then nudged to be safe against float rounding *)
        let limit = (3 * (String.length x + String.length y)) + 128 in
        let c = ref (mn + int_of_float (incumbent *. float_of_int mx)) in
        if !c > limit then c := limit;
        while !c >= 0 && combine cx cy !c > incumbent do
          decr c
        done;
        while !c < limit && combine cx cy (!c + 1) <= incumbent do
          incr c
        done;
        !c
      end
    in
    (match
       Lz.compressed_size_pair_bounded ~level:(Sizecache.level cache) ~cap x y
     with
    | Lz.Size cxy ->
      Sizecache.insert_pair cache x y cxy;
      combine cx cy cxy
    | Lz.At_most ub ->
      Telemetry.add_count "ncd.early_exit";
      let d = combine cx cy ub in
      if d > incumbent then incumbent else d)

let against ?pool ?span ?incumbent ~cache ~baseline xs =
  (* warm the baseline's solo size before fanning out, so the workers'
     shared term is a guaranteed hit instead of a race of misses *)
  ignore (Sizecache.size cache baseline : int);
  let score x =
    match incumbent with
    | None -> distance_via cache x baseline
    | Some inc when inc = neg_infinity -> distance_via cache x baseline
    | Some inc -> distance_bounded cache ~incumbent:inc x baseline
  in
  let one x =
    match span with
    | None -> score x
    | Some name -> Telemetry.with_span name (fun () -> score x)
  in
  match pool with
  | None -> Array.map one xs
  | Some pool -> Parallel.Pool.map pool one xs

let matrix ?pool ~cache xs =
  let n = Array.length xs in
  (* solo sizes first (in parallel), so every pair worker hits on both
     solo terms and only compresses its own concatenation *)
  let solo x = ignore (Sizecache.size cache x : int) in
  (match pool with
  | None -> Array.iter solo xs
  | Some pool -> ignore (Parallel.Pool.map pool (fun x -> solo x) xs));
  let pairs =
    Array.of_list
      (List.concat
         (List.init n (fun i -> List.init (n - 1 - i) (fun k -> (i, i + 1 + k)))))
  in
  let d (i, j) = distance_via cache xs.(i) xs.(j) in
  let ds =
    match pool with
    | None -> Array.map d pairs
    | Some pool -> Parallel.Pool.map pool d pairs
  in
  let m = Array.make_matrix n n 0.0 in
  Array.iteri
    (fun k (i, j) ->
      m.(i).(j) <- ds.(k);
      m.(j).(i) <- ds.(k))
    pairs;
  m
