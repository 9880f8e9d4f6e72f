(* Splitmix64: fast, high-quality, trivially seedable.  Reference:
   Steele, Lea, Flood, "Fast splittable pseudorandom number generators",
   OOPSLA 2014. *)

type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let create seed = { state = mix (Int64.of_int (seed * 2 + 1)) }

let copy t = { state = t.state }

let int64 t =
  t.state <- Int64.add t.state golden;
  mix t.state

let split t = { state = int64 t }

let int t bound =
  assert (bound > 0);
  let v = Int64.to_int (Int64.shift_right_logical (int64 t) 2) in
  v mod bound

let bool t = Int64.logand (int64 t) 1L = 1L

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
  v /. 9007199254740992.0 *. bound

let pick t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))
