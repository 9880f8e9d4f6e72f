open Minic.Ast
module W = Minic.Ast_walk

(* ------------------------------------------------------------------ *)
(* Structural queries (selections over [Minic.Ast_walk])               *)
(* ------------------------------------------------------------------ *)

let is_call = function Call _ -> true | _ -> false

(* Scalars and arrays an expression reads. *)
let names_read acc = function Var v | Index (v, _) -> v :: acc | _ -> acc
let expr_vars e = W.fold_expr names_read [] e

let expr_has_call e = W.exists_expr is_call e

(* Variables assigned (scalars) and arrays stored to, anywhere below. *)
let stmts_writes ss =
  W.fold_stmts
    ~stmt:(fun (vs, arrs) -> function
      | Decl (n, _) | Assign (n, _) -> (n :: vs, arrs)
      | Array_decl (n, _, _) | Store (n, _, _) -> (vs, n :: arrs)
      | _ -> (vs, arrs))
    ~expr:(fun acc _ -> acc)
    ([], []) ss

(* Every name the statements mention anywhere: read, written or declared. *)
let stmts_mentions ss =
  W.fold_stmts
    ~stmt:(fun acc -> function
      | Decl (n, _) | Assign (n, _) | Array_decl (n, _, _) | Store (n, _, _) ->
        n :: acc
      | _ -> acc)
    ~expr:names_read [] ss

let stmts_have_call ss = W.exists ~stmt:(fun _ -> false) ~expr:is_call ss

let stmts_have_return ss =
  W.exists
    ~stmt:(function Return _ -> true | _ -> false)
    ~expr:(fun _ -> false) ss

(* Can control leave [s] other than by falling through?  A [return]
   always escapes; a [break] escapes unless an enclosing loop or switch
   inside [s] binds it, a [continue] unless an enclosing loop does —
   a switch passes it on to the loop around it. *)
let escapes s =
  let rec go ~brk ~cont s =
    match s with
    | Return _ -> true
    | Break -> not brk
    | Continue -> not cont
    | If (_, t, e) -> List.exists (go ~brk ~cont) (t @ e)
    | Block b -> List.exists (go ~brk ~cont) b
    | While (_, b) | Do_while (b, _) | For (_, _, _, b) ->
      List.exists (go ~brk:true ~cont:true) b
    | Switch (_, cases, default) ->
      List.exists (go ~brk:true ~cont)
        (List.concat_map snd cases @ Option.value default ~default:[])
    | Decl _ | Array_decl _ | Assign _ | Store _ | Expr_stmt _ -> false
  in
  go ~brk:false ~cont:false s

(* ------------------------------------------------------------------ *)
(* Counted-loop recognition (shared by the loop passes)                *)
(* ------------------------------------------------------------------ *)

type counted = {
  ivar : string;
  declared : bool;  (** loop declares its own induction variable *)
  start : expr;
  strict : bool;  (** i < bound vs i <= bound *)
  bound : expr;
  step : int;  (** constant, ≥ 1 *)
  body : stmt list;
}

let globals_of p =
  List.fold_left
    (fun acc g ->
      match g with Gvar (n, _) | Garr (n, _, _) -> n :: acc)
    [] p.globals

(* [bound_safe] — the bound and start expressions must be re-evaluatable:
   pure, their variables not assigned in the body, and (when the body
   contains calls) not referencing globals or arrays. *)
let invariant_expr ~globals ~body e =
  (not (expr_has_call e))
  &&
  let vars = expr_vars e in
  let assigned, stored = stmts_writes body in
  let has_call = stmts_have_call body in
  List.for_all
    (fun v ->
      (not (List.mem v assigned))
      && (not (List.mem v stored))
      && not (has_call && List.mem v globals))
    vars

let match_counted ~globals (s : stmt) : counted option =
  match s with
  | For (Some init, Some (Binary ((Lt | Le) as cmp, Var i, bound)), Some step, body)
    -> (
    let declared, start =
      match init with
      | Decl (i', Some e0) when i' = i -> (Some true, Some e0)
      | Assign (i', e0) when i' = i -> (Some false, Some e0)
      | _ -> (None, None)
    in
    let step_c =
      match step with
      | Assign (i', Binary (Add, Var i'', Int c))
        when i' = i && i'' = i && c >= 1 ->
        Some c
      | _ -> None
    in
    match (declared, start, step_c) with
    | Some declared, Some start, Some step ->
      let assigned, _ = stmts_writes body in
      let jumps = List.exists escapes body in
      if
        (not jumps)
        && (not (List.mem i assigned))
        && invariant_expr ~globals ~body bound
        && invariant_expr ~globals ~body:[] start
      then
        Some
          { ivar = i; declared; start; strict = cmp = Lt; bound; step; body }
      else None
    | _ -> None)
  | _ -> None

let rebuild_counted c =
  let init =
    if c.declared then Decl (c.ivar, Some c.start)
    else Assign (c.ivar, c.start)
  in
  let cmp = if c.strict then Lt else Le in
  For
    ( Some init,
      Some (Binary (cmp, Var c.ivar, c.bound)),
      Some (Assign (c.ivar, Binary (Add, Var c.ivar, Int c.step))),
      c.body )

(* ------------------------------------------------------------------ *)
(* Call normalization                                                  *)
(* ------------------------------------------------------------------ *)

let normalize_calls p =
  let counter = ref 0 in
  let fresh () =
    incr counter;
    Printf.sprintf "__nc%d" !counter
  in
  (* Hoist calls out of [e]; prepends temp declarations to [acc].
     Subtrees whose evaluation is conditional (&&/|| right sides, ternary
     arms) are barriers: calls inside them stay put. *)
  let rec hoist acc e =
    match e with
    | Int _ | Var _ -> e
    | Index (a, i) -> Index (a, hoist acc i)
    | Unary (op, e) -> Unary (op, hoist acc e)
    | Binary (((Land | Lor) as op), a, b) ->
      (* left side evaluates unconditionally *)
      Binary (op, hoist acc a, b)
    | Binary (op, a, b) ->
      let a = hoist acc a in
      let b = hoist acc b in
      Binary (op, a, b)
    | Ternary (c, a, b) -> Ternary (hoist acc c, a, b)
    | Call (f, args) ->
      let args = List.map (hoist acc) args in
      let t = fresh () in
      acc := Decl (t, Some (Call (f, args))) :: !acc;
      Var t
  in
  (* hoist but keep a top-level call in place (already normalized) *)
  let hoist_rhs acc e =
    match e with
    | Call (f, args) -> Call (f, List.map (hoist acc) args)
    | _ -> hoist acc e
  in
  let with_hoisted f =
    let acc = ref [] in
    let s = f acc in
    List.rev !acc @ [ s ]
  in
  let g s =
    match s with
    | Decl (n, Some e) ->
      with_hoisted (fun acc -> Decl (n, Some (hoist_rhs acc e)))
    | Assign (n, e) -> with_hoisted (fun acc -> Assign (n, hoist_rhs acc e))
    | Store (a, i, v) ->
      with_hoisted (fun acc ->
          let i = hoist acc i in
          let v = hoist acc v in
          Store (a, i, v))
    | Return (Some e) ->
      with_hoisted (fun acc -> Return (Some (hoist_rhs acc e)))
    | Expr_stmt e -> with_hoisted (fun acc -> Expr_stmt (hoist_rhs acc e))
    | If (c, t, e) -> with_hoisted (fun acc -> If (hoist acc c, t, e))
    | Switch (e, cases, d) ->
      with_hoisted (fun acc -> Switch (hoist acc e, cases, d))
    | Decl (_, None) | Array_decl _ | While _ | Do_while _ | For _
    | Return None | Break | Continue | Block _ ->
      [ s ]
  in
  W.map_program g p

(* ------------------------------------------------------------------ *)
(* Inlining                                                            *)
(* ------------------------------------------------------------------ *)

module Smap = Map.Make (String)
module Sset = Set.Make (String)

(* Functions that can reach themselves through the static call graph. *)
let recursive_functions p =
  let calls = Hashtbl.create 16 in
  List.iter
    (fun f ->
      Hashtbl.replace calls f.fname
        (W.fold_stmts ~stmt:(fun acc _ -> acc)
           ~expr:(fun acc -> function Call (g, _) -> Sset.add g acc | _ -> acc)
           Sset.empty f.body))
    p.funcs;
  (* transitive closure: f recursive iff f reachable from f *)
  let reaches_self fname =
    let seen = ref Sset.empty in
    let rec go n =
      match Hashtbl.find_opt calls n with
      | None -> false
      | Some callees ->
        Sset.exists
          (fun c ->
            c = fname
            ||
            if Sset.mem c !seen then false
            else begin
              seen := Sset.add c !seen;
              go c
            end)
          callees
    in
    go fname
  in
  List.filter_map
    (fun f -> if reaches_self f.fname then Some f.fname else None)
    p.funcs

let inline ~max_size ~rounds p =
  let counter = ref 0 in
  let fresh prefix =
    incr counter;
    Printf.sprintf "__%s%d" prefix !counter
  in
  let do_round p =
    let recursive = recursive_functions p in
    let by_name =
      List.fold_left (fun m f -> Smap.add f.fname f m) Smap.empty p.funcs
    in
    let inlinable name =
      match Smap.find_opt name by_name with
      | Some f
        when name <> "main"
             && (not (List.mem name recursive))
             && W.func_size f <= max_size ->
        Some f
      | Some _ | None -> None
    in
    let changed = ref false in
    (* Rename the callee body: params and locals get fresh names. *)
    let rename_body callee args_names =
      let env0 =
        List.fold_left2
          (fun m p a -> Smap.add p a m)
          Smap.empty callee.params args_names
      in
      let lookup env n = match Smap.find_opt n env with Some x -> x | None -> n in
      let rec rn_stmts env ss =
        let _, rev =
          List.fold_left
            (fun (env, acc) s ->
              let env, s = rn_stmt env s in
              (env, s :: acc))
            (env, []) ss
        in
        List.rev rev
      and rn_stmt env s =
        let ex = W.rename_expr (lookup env) in
        match s with
        | Decl (n, init) ->
          let n' = fresh "inl" in
          (Smap.add n n' env, Decl (n', Option.map ex init))
        | Array_decl (n, size, init) ->
          let n' = fresh "inla" in
          (Smap.add n n' env, Array_decl (n', size, init))
        | Assign (n, e) -> (env, Assign (lookup env n, ex e))
        | Store (a, i, v) -> (env, Store (lookup env a, ex i, ex v))
        | If (c, t, e) -> (env, If (ex c, rn_stmts env t, rn_stmts env e))
        | While (c, b) -> (env, While (ex c, rn_stmts env b))
        | Do_while (b, c) -> (env, Do_while (rn_stmts env b, ex c))
        | For (init, cond, step, b) ->
          let env', init =
            match init with
            | None -> (env, None)
            | Some s ->
              let env', s = rn_stmt env s in
              (env', Some s)
          in
          let cond = Option.map (W.rename_expr (lookup env')) cond in
          let step =
            Option.map (fun s -> snd (rn_stmt env' s)) step
          in
          (env, For (init, cond, step, rn_stmts env' b))
        | Switch (e, cases, d) ->
          ( env,
            Switch
              ( ex e,
                List.map (fun (ls, b) -> (ls, rn_stmts env b)) cases,
                Option.map (rn_stmts env) d ) )
        | Return e -> (env, Return (Option.map ex e))
        | Break -> (env, Break)
        | Continue -> (env, Continue)
        | Expr_stmt e -> (env, Expr_stmt (ex e))
        | Block b -> (env, Block (rn_stmts env b))
      in
      rn_stmts env0 callee.body
    in
    (* Replace Return with result/done writes; guard continuations. *)
    let lower_returns ~ret ~done_ body =
      let not_done = Unary (Lnot, Var done_) in
      let rec tr_list ss =
        match ss with
        | [] -> []
        | s :: rest ->
          let s' = tr s in
          let rest' = tr_list rest in
          if stmts_have_return [ s ] && rest' <> [] then
            [ s'; If (not_done, rest', []) ]
          else s' :: rest'
      and tr s =
        match s with
        | Return e ->
          let e = match e with None -> Int 0 | Some e -> e in
          Block [ Assign (ret, e); Assign (done_, Int 1) ]
        | If (c, t, e) -> If (c, tr_list t, tr_list e)
        | While (c, b) ->
          if stmts_have_return b then
            While (Binary (Land, not_done, c), tr_list b)
          else While (c, b)
        | Do_while (b, c) ->
          if stmts_have_return b then
            Do_while (tr_list b, Binary (Land, not_done, c))
          else Do_while (b, c)
        | For (init, cond, step, b) ->
          if stmts_have_return b then begin
            let cond' =
              match cond with
              | None -> Some not_done
              | Some c -> Some (Binary (Land, not_done, c))
            in
            For (init, cond', step, tr_list b)
          end
          else For (init, cond, step, b)
        | Switch (e, cases, d) ->
          (* a Return in a case both exits the switch and used to stop
             fallthrough; after rewriting it to assignments the body can
             fall into the next case, so guard every case body with the
             completion flag *)
          let has_ret = stmts_have_return [ s ] in
          let guard b =
            let b' = tr_list b in
            if has_ret then [ If (not_done, b', []) ] else b'
          in
          Switch
            ( e,
              List.map (fun (ls, b) -> (ls, guard b)) cases,
              Option.map guard d )
        | Block b -> Block (tr_list b)
        | Decl _ | Array_decl _ | Assign _ | Store _ | Break | Continue
        | Expr_stmt _ ->
          s
      in
      tr_list body
    in
    let expand callee args ~bind_result =
      changed := true;
      let arg_names = List.map (fun _ -> fresh "arg") callee.params in
      let arg_decls =
        List.map2 (fun n a -> Decl (n, Some a)) arg_names args
      in
      let ret = fresh "ret" in
      let done_ = fresh "done" in
      let body = rename_body callee arg_names in
      let needs_guard = stmts_have_return body in
      let body =
        if needs_guard then lower_returns ~ret ~done_ body
        else
          (* a body with no returns falls through; result is 0 *)
          body
      in
      let prologue =
        arg_decls @ [ Decl (ret, Some (Int 0)); Decl (done_, Some (Int 0)) ]
      in
      match bind_result with
      | None -> Block (prologue @ body)
      | Some k -> Block (prologue @ body @ [ k (Var ret) ])
    in
    let g s =
      match s with
      | Decl (n, Some (Call (f, args))) -> (
        match inlinable f with
        | Some callee ->
          [
            Decl (n, None);
            expand callee args ~bind_result:(Some (fun r -> Assign (n, r)));
          ]
        | None -> [ s ])
      | Assign (n, Call (f, args)) -> (
        match inlinable f with
        | Some callee ->
          [ expand callee args ~bind_result:(Some (fun r -> Assign (n, r))) ]
        | None -> [ s ])
      | Expr_stmt (Call (f, args)) -> (
        match inlinable f with
        | Some callee -> [ expand callee args ~bind_result:None ]
        | None -> [ s ])
      | Return (Some (Call (f, args))) -> (
        match inlinable f with
        | Some callee ->
          let t = fresh "rv" in
          [
            Decl (t, None);
            expand callee args ~bind_result:(Some (fun r -> Assign (t, r)));
            Return (Some (Var t));
          ]
        | None -> [ s ])
      | _ -> [ s ]
    in
    let p' = W.map_program g p in
    (p', !changed)
  in
  let rec go n p =
    if n <= 0 then p
    else
      let p', changed = do_round p in
      if changed then go (n - 1) p' else p'
  in
  go rounds p

(* ------------------------------------------------------------------ *)
(* Loop unrolling                                                      *)
(* ------------------------------------------------------------------ *)

let unroll ~factor ~full_limit p =
  assert (factor >= 2);
  let globals = globals_of p in
  let trip_count c =
    match (c.start, c.bound) with
    | Int s0, Int b ->
      let upper = if c.strict then b - 1 else b in
      if upper < s0 then Some 0 else Some (((upper - s0) / c.step) + 1)
    | _ -> None
  in
  let g s =
    match match_counted ~globals s with
    | None -> [ s ]
    | Some c -> (
      let i = c.ivar in
      let step_stmt = Assign (i, Binary (Add, Var i, Int c.step)) in
      let init =
        if c.declared then Decl (i, Some c.start) else Assign (i, c.start)
      in
      let body_size = W.stmts_size c.body in
      match trip_count c with
      | Some trip when trip <= full_limit && trip * body_size <= 400 ->
        (* full unroll: straight-line code (with the usual compiler
           growth cap — unbounded expansion makes compile time quadratic
           and buys no further binary difference) *)
        let iter =
          List.concat (List.init trip (fun _ -> c.body @ [ step_stmt ]))
        in
        if c.declared then [ Block (init :: iter) ] else init :: iter
      | _ when body_size * factor > 600 -> [ s ]
      | Some _ | None ->
        (* guarded partial unroll + remainder loop *)
        let cmp = if c.strict then Lt else Le in
        let guard =
          Binary
            ( cmp,
              Binary (Add, Var i, Int ((factor - 1) * c.step)),
              c.bound )
        in
        let unrolled_body =
          List.concat (List.init factor (fun _ -> c.body @ [ step_stmt ]))
        in
        let remainder =
          While (Binary (cmp, Var i, c.bound), c.body @ [ step_stmt ])
        in
        let seq = [ init; While (guard, unrolled_body); remainder ] in
        if c.declared then [ Block seq ] else seq)
  in
  W.map_program g p

(* ------------------------------------------------------------------ *)
(* Loop peeling                                                        *)
(* ------------------------------------------------------------------ *)

let peel p =
  let globals = globals_of p in
  let g s =
    match match_counted ~globals s with
    | None -> [ s ]
    | Some c ->
      let i = c.ivar in
      let cmp = if c.strict then Lt else Le in
      let cond = Binary (cmp, Var i, c.bound) in
      let step_stmt = Assign (i, Binary (Add, Var i, Int c.step)) in
      let init =
        if c.declared then Decl (i, Some c.start) else Assign (i, c.start)
      in
      let seq =
        [
          init;
          If
            ( cond,
              c.body @ [ step_stmt; While (cond, c.body @ [ step_stmt ]) ],
              [] );
        ]
      in
      if c.declared then [ Block seq ] else seq
  in
  W.map_program g p

(* ------------------------------------------------------------------ *)
(* Loop unswitching                                                    *)
(* ------------------------------------------------------------------ *)

let unswitch p =
  let globals = globals_of p in
  (* no array reads in the condition: stores in the body could change
     them even when the array itself is never the target of a store we
     can see (aliased local names) *)
  let invariant_cond ~body c =
    (not (W.exists_expr (function Index _ | Call _ -> true | _ -> false) c))
    && invariant_expr ~globals ~body c
  in
  let split_body body =
    (* find first top-level invariant If *)
    let rec go pre = function
      | [] -> None
      | If (c, t, e) :: rest when invariant_cond ~body c ->
        Some (List.rev pre, c, t, e, rest)
      | s :: rest -> go (s :: pre) rest
    in
    go [] body
  in
  let g s =
    match s with
    | While (cond, body) -> (
      match split_body body with
      | Some (pre, c, t, e, post) ->
        [
          If
            ( c,
              [ While (cond, pre @ t @ post) ],
              [ While (cond, pre @ e @ post) ] );
        ]
      | None -> [ s ])
    | For (init, cond, step, body) -> (
      match split_body body with
      | Some (pre, c, t, e, post) ->
        (* the induction variable may appear in c only if never assigned,
           which match on invariant_expr already guarantees (it checks
           assignments including the step?) — the step assigns i outside
           [body], so exclude conditions mentioning the loop's own
           induction variable explicitly. *)
        let header_writes, _ =
          stmts_writes (Option.to_list init @ Option.to_list step)
        in
        let cv = expr_vars c in
        if List.exists (fun v -> List.mem v cv) header_writes then [ s ]
        else
          [
            If
              ( c,
                [ For (init, cond, step, pre @ t @ post) ],
                [ For (init, cond, step, pre @ e @ post) ] );
          ]
      | None -> [ s ])
    | _ -> [ s ]
  in
  W.map_program g p

(* ------------------------------------------------------------------ *)
(* Loop distribution (memset/memcpy pattern split-off)                 *)
(* ------------------------------------------------------------------ *)

let distribute p =
  let globals = globals_of p in
  let g s =
    match match_counted ~globals s with
    | None -> [ s ]
    | Some c -> (
      let is_init_store = function
        | Store (_, Var v, Int _) when v = c.ivar -> true
        | _ -> false
      in
      let rec split pre = function
        | st :: rest when is_init_store st -> split (st :: pre) rest
        | rest -> (List.rev pre, rest)
      in
      match split [] c.body with
      | [], _ | _, [] -> [ s ]
      | inits, rest ->
        let init_arrays =
          List.filter_map
            (function Store (a, _, _) -> Some a | _ -> None)
            inits
        in
        (* the remainder must not touch the initialized arrays anywhere,
           nested statements included, and must not disturb the loop
           bounds (match_counted already checked bound invariance over
           the whole body, which includes rest) *)
        let rest_mentions = stmts_mentions rest in
        if List.exists (fun a -> List.mem a rest_mentions) init_arrays then
          [ s ]
        else
          [
            rebuild_counted { c with body = inits };
            rebuild_counted { c with body = rest };
          ])
  in
  W.map_program g p

(* ------------------------------------------------------------------ *)
(* Unroll and jam                                                      *)
(* ------------------------------------------------------------------ *)

(* Safety for jamming two consecutive outer iterations: every access to a
   *stored* array must be the row-major cell [arr[i*w + j]], so the cells
   touched by outer iterations i and i+1 are disjoint and same-iteration
   reads see their own writes.  Loads from arrays nobody stores to are
   unrestricted. *)
let jam_safe ~i ~j body =
  let _, stored = stmts_writes body in
  let row_major = function
    | Binary (Add, Binary (Mul, Var i', Int _), Var j') -> i' = i && j' = j
    | _ -> false
  in
  let expr_ok e =
    not
      (W.exists_expr
         (function
           | Call _ -> true
           | Index (a, idx) -> List.mem a stored && not (row_major idx)
           | _ -> false)
         e)
  in
  let rec stmt_ok s =
    match s with
    | Store (a, idx, v) ->
      List.mem a stored && row_major idx && expr_ok idx && expr_ok v
    | Assign (_, e) | Decl (_, Some e) | Expr_stmt e -> expr_ok e
    | Decl (_, None) -> true
    | If (c, t, e) -> expr_ok c && List.for_all stmt_ok (t @ e)
    | Block b -> List.for_all stmt_ok b
    | Array_decl _ | While _ | Do_while _ | For _ | Switch _ | Return _
    | Break | Continue ->
      false
  in
  List.for_all stmt_ok body

let unroll_and_jam p =
  let globals = globals_of p in
  let counter = ref 0 in
  let g s =
    match match_counted ~globals s with
    | Some outer when outer.step = 1 -> (
      match outer.body with
      | [ (For _ as inner_stmt) ] -> (
        match match_counted ~globals inner_stmt with
        | Some inner
          when W.stmts_size inner.body <= 150
               && inner.declared
               && (not (List.mem outer.ivar (expr_vars inner.start)))
               && (not (List.mem outer.ivar (expr_vars inner.bound)))
               && (not (List.mem inner.ivar (expr_vars outer.bound)))
               && jam_safe ~i:outer.ivar ~j:inner.ivar inner.body
               &&
               (* any scalar the inner body assigns must be its own
                  declaration, so the two jammed copies do not share
                  state (copy 2 re-declares, shadowing copy 1) *)
               (let assigned, _ = stmts_writes inner.body in
                let declared =
                  List.filter_map
                    (function Decl (n, _) -> Some n | _ -> None)
                    inner.body
                in
                List.for_all (fun v -> List.mem v declared) assigned) ->
          incr counter;
          let i = outer.ivar in
          let i2 = Printf.sprintf "__uj%d" !counter in
          let copy2 = W.rename (fun v -> if v = i then i2 else v) inner.body in
          let jammed_inner =
            rebuild_counted { inner with body = inner.body @ copy2 }
          in
          let cmp = if outer.strict then Lt else Le in
          let init =
            if outer.declared then Decl (i, Some outer.start)
            else Assign (i, outer.start)
          in
          let seq =
            [
              init;
              While
                ( Binary (cmp, Binary (Add, Var i, Int 1), outer.bound),
                  [
                    Decl (i2, Some (Binary (Add, Var i, Int 1)));
                    jammed_inner;
                    Assign (i, Binary (Add, Var i, Int 2));
                  ] );
              While
                ( Binary (cmp, Var i, outer.bound),
                  [ inner_stmt; Assign (i, Binary (Add, Var i, Int 1)) ] );
            ]
          in
          if outer.declared then [ Block seq ] else seq
        | Some _ | None -> [ s ])
      | _ -> [ s ])
    | Some _ | None -> [ s ]
  in
  W.map_program g p


(* ------------------------------------------------------------------ *)
(* Builtin expansion                                                   *)
(* ------------------------------------------------------------------ *)

let expand_builtins p =
  let limit = 16 in
  let mem = "__mem" in
  let has_mem =
    List.exists
      (function Garr (n, _, _) -> n = mem | Gvar _ -> false)
      p.globals
  in
  if not has_mem then p
  else begin
    let expand f args =
      match (f, args) with
      | "memset", [ Int dst; v; Int count ]
        when count >= 0 && count <= limit && not (expr_has_call v) ->
        Some
          (List.init count (fun k -> Store (mem, Int (dst + k), v)), Int dst)
      | "memcpy", [ Int dst; Int src; Int count ]
        when count >= 0 && count <= limit ->
        Some
          ( List.init count (fun k ->
                Store (mem, Int (dst + k), Index (mem, Int (src + k)))),
            Int dst )
      | _ -> None
    in
    let g s =
      match s with
      | Expr_stmt (Call (f, args)) -> (
        match expand f args with
        | Some (stores, _) -> stores
        | None -> [ s ])
      | Assign (n, Call (f, args)) -> (
        match expand f args with
        | Some (stores, result) -> stores @ [ Assign (n, result) ]
        | None -> [ s ])
      | Decl (n, Some (Call (f, args))) -> (
        match expand f args with
        | Some (stores, result) -> stores @ [ Decl (n, Some result) ]
        | None -> [ s ])
      | _ -> [ s ]
    in
    W.map_program g p
  end

(* ------------------------------------------------------------------ *)
(* Function instrumentation                                            *)
(* ------------------------------------------------------------------ *)

let instrument p =
  let skip = [ "__instr_enter"; "__instr_exit" ] in
  let has_instr_helpers =
    List.exists (fun f -> List.mem f.fname skip) p.funcs
  in
  let counter_global = "__instr_depth" in
  let helpers =
    [
      {
        fname = "__instr_enter";
        params = [ "f" ];
        body =
          [
            Assign (counter_global, Binary (Add, Var counter_global, Var "f"));
            Return (Some (Int 0));
          ];
      };
      {
        fname = "__instr_exit";
        params = [ "f" ];
        body =
          [
            Assign (counter_global, Binary (Sub, Var counter_global, Var "f"));
            Return (Some (Int 0));
          ];
      };
    ]
  in
  let p =
    if has_instr_helpers then p
    else
      {
        globals = p.globals @ [ Gvar (counter_global, 0) ];
        funcs = p.funcs @ helpers;
      }
  in
  let wrapped, real =
    List.fold_left
      (fun (ws, rs) f ->
        if List.mem f.fname skip then (ws, f :: rs)
        else begin
          let fid = List.length ws + 1 in
          let real_name = "__real_" ^ f.fname in
          let wrapper =
            {
              fname = f.fname;
              params = f.params;
              body =
                [
                  Expr_stmt (Call ("__instr_enter", [ Int fid ]));
                  Decl
                    ( "__r",
                      Some
                        (Call (real_name, List.map (fun a -> Var a) f.params))
                    );
                  Expr_stmt (Call ("__instr_exit", [ Int fid ]));
                  Return (Some (Var "__r"));
                ];
            }
          in
          (wrapper :: ws, { f with fname = real_name } :: rs)
        end)
      ([], []) p.funcs
  in
  { p with funcs = List.rev real @ List.rev wrapped }
