open Sat.Dpll

(* One clause per rule: [Requires (a, b)] is (¬a ∨ b), [Conflicts (a, b)]
   is (¬a ∨ ¬b).  Variables are flag indices. *)
let clause_of p = function
  | Flags.Requires (a, b) ->
    [ Neg (Flags.flag_index p a); Pos (Flags.flag_index p b) ]
  | Flags.Conflicts (a, b) ->
    [ Neg (Flags.flag_index p a); Neg (Flags.flag_index p b) ]

let cnf_of p = List.map (clause_of p) p.Flags.constraints

let assumptions_of vector =
  Array.to_list (Array.mapi (fun i on -> if on then Pos i else Neg i) vector)

let valid p vector =
  let cnf = cnf_of p in
  match
    solve_with_assumptions ~nvars:(Array.length p.Flags.flags) cnf
      (assumptions_of vector)
  with
  | Sat _ -> true
  | Unsat -> false

let broken p vector rule =
  let on name = vector.(Flags.flag_index p name) in
  match rule with
  | Flags.Requires (a, b) -> on a && not (on b)
  | Flags.Conflicts (a, b) -> on a && on b

let violations p vector =
  List.filter (broken p vector) p.Flags.constraints

let repair p rng vector =
  let v = Array.copy vector in
  let changed = ref true in
  let rounds = ref 0 in
  while !changed do
    changed := false;
    incr rounds;
    (* after a few random rounds, fall back to switching flags off only,
       which cannot oscillate *)
    let off_only = !rounds > 16 in
    List.iter
      (fun rule ->
        if broken p v rule then begin
          changed := true;
          match rule with
          | Flags.Requires (a, b) ->
            if (not off_only) && Util.Rng.bool rng then
              v.(Flags.flag_index p b) <- true
            else v.(Flags.flag_index p a) <- false
          | Flags.Conflicts (a, b) ->
            let victim = if Util.Rng.bool rng then a else b in
            v.(Flags.flag_index p victim) <- false
        end)
      p.Flags.constraints
  done;
  assert (valid p v);
  v
