open Ast

let rec fold_expr f acc e =
  let acc = f acc e in
  match e with
  | Int _ | Var _ -> acc
  | Index (_, x) | Unary (_, x) -> fold_expr f acc x
  | Binary (_, a, b) -> fold_expr f (fold_expr f acc a) b
  | Ternary (c, a, b) -> fold_expr f (fold_expr f (fold_expr f acc c) a) b
  | Call (_, args) -> List.fold_left (fold_expr f) acc args

let fold_stmts ~stmt ~expr acc ss =
  let ex acc e = fold_expr expr acc e in
  let opt f acc = Option.fold ~none:acc ~some:(f acc) in
  let rec st acc s =
    let acc = stmt acc s in
    match s with
    | Decl (_, None) | Array_decl _ | Return None | Break | Continue -> acc
    | Decl (_, Some e) | Assign (_, e) | Return (Some e) | Expr_stmt e ->
      ex acc e
    | Store (_, i, v) -> ex (ex acc i) v
    | If (c, t, e) -> list (list (ex acc c) t) e
    | While (c, b) -> list (ex acc c) b
    | Do_while (b, c) -> ex (list acc b) c
    | For (init, cond, step, b) ->
      list (opt st (opt ex (opt st acc init) cond) step) b
    | Switch (e, cases, default) ->
      opt list (List.fold_left (fun acc (_, b) -> list acc b) (ex acc e) cases)
        default
    | Block b -> list acc b
  and list acc ss = List.fold_left st acc ss in
  list acc ss

let exists_expr p e = fold_expr (fun found e -> found || p e) false e

let exists ~stmt ~expr ss =
  fold_stmts
    ~stmt:(fun found s -> found || stmt s)
    ~expr:(fun found e -> found || expr e)
    false ss

let stmts_size ss =
  fold_stmts
    ~stmt:(fun n -> function Block _ -> n | _ -> n + 1)
    ~expr:(fun n _ -> n + 1)
    0 ss

let func_size f = stmts_size f.body

let program_size p = List.fold_left (fun n f -> n + func_size f) 0 p.funcs

let rec rename_expr env e =
  match e with
  | Int _ -> e
  | Var v -> Var (env v)
  | Index (a, i) -> Index (env a, rename_expr env i)
  | Unary (op, x) -> Unary (op, rename_expr env x)
  | Binary (op, a, b) -> Binary (op, rename_expr env a, rename_expr env b)
  | Ternary (c, a, b) ->
    Ternary (rename_expr env c, rename_expr env a, rename_expr env b)
  | Call (f, args) -> Call (f, List.map (rename_expr env) args)

let rename env ss =
  let ex = rename_expr env in
  let rec st s =
    match s with
    | Decl (n, init) -> Decl (n, Option.map ex init)
    | Array_decl _ | Break | Continue -> s
    | Assign (n, e) -> Assign (env n, ex e)
    | Store (a, i, v) -> Store (env a, ex i, ex v)
    | If (c, t, e) -> If (ex c, list t, list e)
    | While (c, b) -> While (ex c, list b)
    | Do_while (b, c) -> Do_while (list b, ex c)
    | For (init, cond, step, b) ->
      For (Option.map st init, Option.map ex cond, Option.map st step, list b)
    | Switch (e, cases, default) ->
      Switch
        ( ex e,
          List.map (fun (ls, b) -> (ls, list b)) cases,
          Option.map list default )
    | Return e -> Return (Option.map ex e)
    | Expr_stmt e -> Expr_stmt (ex e)
    | Block b -> Block (list b)
  and list ss = List.map st ss in
  list ss

let rec map_stmts g stmts = List.concat_map (map_stmt g) stmts

and map_stmt g s =
  let s =
    match s with
    | If (c, t, e) -> If (c, map_stmts g t, map_stmts g e)
    | While (c, b) -> While (c, map_stmts g b)
    | Do_while (b, c) -> Do_while (map_stmts g b, c)
    | For (init, cond, step, b) -> For (init, cond, step, map_stmts g b)
    | Switch (e, cases, default) ->
      Switch
        ( e,
          List.map (fun (ls, b) -> (ls, map_stmts g b)) cases,
          Option.map (map_stmts g) default )
    | Block b -> Block (map_stmts g b)
    | Decl _ | Array_decl _ | Assign _ | Store _ | Return _ | Break
    | Continue | Expr_stmt _ ->
      s
  in
  g s

let map_program g p =
  let map_func f = { f with body = map_stmts g f.body } in
  { p with funcs = List.map map_func p.funcs }
