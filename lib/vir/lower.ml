module A = Minic.Ast
open Ir

type options = {
  merge_conditionals : bool;
  vectorize : bool;
}

let default_options = { merge_conditionals = false; vectorize = false }

exception Error of string

let errorf fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

module Smap = Map.Make (String)

type binding =
  | Bslot of int  (** local scalar / spilled parameter *)
  | Barray of string  (** array (local resolved name or global name) *)
  | Bgscalar of string  (** global scalar, accessed as name[0] *)

(* Lowering context for one function. *)
type ctx = {
  func : func;
  opts : options;
  prog_arrays : (string, unit) Hashtbl.t;  (** global array names *)
  mutable cur : block;  (** block under construction *)
  mutable break_targets : label list;
  mutable continue_targets : label option list;
      (** one entry per break scope; [None] for switch scopes *)
  mutable local_counter : int;
}

(* During construction, [func.blocks] and each block's [instrs] are kept
   in reverse and flipped once at the end of [lower_function] — appending
   per instruction would be quadratic on the huge straight-line blocks
   full unrolling produces. *)
let new_block ctx =
  let l = fresh_label ctx.func in
  let b = { label = l; instrs = []; term = Ret None } in
  ctx.func.blocks <- b :: ctx.func.blocks;
  b

let emit ctx i = ctx.cur.instrs <- i :: ctx.cur.instrs

let set_term ctx t = ctx.cur.term <- t

let switch_to ctx b = ctx.cur <- b

(* ------------------------------------------------------------------ *)
(* Purity: an expression with no calls has no side effects in MinC.    *)
(* ------------------------------------------------------------------ *)

let pure e =
  not (Minic.Ast_walk.exists_expr (function A.Call _ -> true | _ -> false) e)

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let binop_of_ast = function
  | A.Add -> Add
  | A.Sub -> Sub
  | A.Mul -> Mul
  | A.Div -> Div
  | A.Mod -> Mod
  | A.Band -> And
  | A.Bor -> Or
  | A.Bxor -> Xor
  | A.Shl -> Shl
  | A.Shr -> Shr
  | A.Lt -> Slt
  | A.Le -> Sle
  | A.Gt -> Sgt
  | A.Ge -> Sge
  | A.Eq -> Seq
  | A.Ne -> Sne
  | A.Land | A.Lor -> invalid_arg "binop_of_ast: shortcircuit op"

let rec lower_expr ctx env (e : A.expr) : operand =
  match e with
  | A.Int n -> Imm n
  | A.Var v -> (
    match Smap.find_opt v env with
    | Some (Bslot s) ->
      let r = fresh_reg ctx.func in
      emit ctx (Slot_load (r, s));
      Reg r
    | Some (Bgscalar g) ->
      let r = fresh_reg ctx.func in
      emit ctx (Load (r, g, Imm 0));
      Reg r
    | Some (Barray _) -> errorf "array %s used as scalar" v
    | None -> errorf "unbound variable %s" v)
  | A.Index (a, idx) ->
    let name = resolve_array ctx env a in
    let i = lower_expr ctx env idx in
    let r = fresh_reg ctx.func in
    emit ctx (Load (r, name, i));
    Reg r
  | A.Unary (A.Neg, e) ->
    let v = lower_expr ctx env e in
    let r = fresh_reg ctx.func in
    emit ctx (Un (Neg, r, v));
    Reg r
  | A.Unary (A.Bnot, e) ->
    let v = lower_expr ctx env e in
    let r = fresh_reg ctx.func in
    emit ctx (Un (Not, r, v));
    Reg r
  | A.Unary (A.Lnot, e) ->
    let v = lower_expr ctx env e in
    let r = fresh_reg ctx.func in
    emit ctx (Bin (Seq, r, v, Imm 0));
    Reg r
  | A.Binary ((A.Land | A.Lor) as op, a, b)
    when ctx.opts.merge_conditionals && pure a && pure b ->
    (* compound conditionals: evaluate both sides, combine bitwise *)
    let va = lower_expr ctx env a in
    let vb = lower_expr ctx env b in
    let ba = fresh_reg ctx.func and bb = fresh_reg ctx.func in
    emit ctx (Bin (Sne, ba, va, Imm 0));
    emit ctx (Bin (Sne, bb, vb, Imm 0));
    let r = fresh_reg ctx.func in
    let bop = match op with A.Land -> And | _ -> Or in
    emit ctx (Bin (bop, r, Reg ba, Reg bb));
    Reg r
  | A.Binary (A.Land, a, b) ->
    (* short-circuit: r = a ? (b != 0) : 0 *)
    let r = fresh_reg ctx.func in
    let va = lower_expr ctx env a in
    let eval_b = new_block ctx in
    let skip = new_block ctx in
    let join = new_block ctx in
    set_term ctx (Br (va, eval_b.label, skip.label));
    switch_to ctx eval_b;
    let vb = lower_expr ctx env b in
    emit ctx (Bin (Sne, r, vb, Imm 0));
    set_term ctx (Jmp join.label);
    switch_to ctx skip;
    emit ctx (Mov (r, Imm 0));
    set_term ctx (Jmp join.label);
    switch_to ctx join;
    Reg r
  | A.Binary (A.Lor, a, b) ->
    let r = fresh_reg ctx.func in
    let va = lower_expr ctx env a in
    let eval_b = new_block ctx in
    let skip = new_block ctx in
    let join = new_block ctx in
    set_term ctx (Br (va, skip.label, eval_b.label));
    switch_to ctx eval_b;
    let vb = lower_expr ctx env b in
    emit ctx (Bin (Sne, r, vb, Imm 0));
    set_term ctx (Jmp join.label);
    switch_to ctx skip;
    emit ctx (Mov (r, Imm 1));
    set_term ctx (Jmp join.label);
    switch_to ctx join;
    Reg r
  | A.Binary (op, a, b) ->
    let va = lower_expr ctx env a in
    let vb = lower_expr ctx env b in
    let r = fresh_reg ctx.func in
    emit ctx (Bin (binop_of_ast op, r, va, vb));
    Reg r
  | A.Ternary (c, a, b) ->
    let r = fresh_reg ctx.func in
    let vc = lower_expr ctx env c in
    let then_b = new_block ctx in
    let else_b = new_block ctx in
    let join = new_block ctx in
    set_term ctx (Br (vc, then_b.label, else_b.label));
    switch_to ctx then_b;
    let va = lower_expr ctx env a in
    emit ctx (Mov (r, va));
    set_term ctx (Jmp join.label);
    switch_to ctx else_b;
    let vb = lower_expr ctx env b in
    emit ctx (Mov (r, vb));
    set_term ctx (Jmp join.label);
    switch_to ctx join;
    Reg r
  | A.Call (fn, args) -> (
    let vargs = List.map (lower_expr ctx env) args in
    match fn with
    | "print_int" ->
      (match vargs with
      | [ v ] -> emit ctx (Print_int v)
      | _ -> errorf "print_int arity");
      Imm 0
    | "print_char" ->
      (match vargs with
      | [ v ] -> emit ctx (Print_char v)
      | _ -> errorf "print_char arity");
      Imm 0
    | "input" ->
      let r = fresh_reg ctx.func in
      (match vargs with
      | [ v ] -> emit ctx (Read_input (r, v))
      | _ -> errorf "input arity");
      Reg r
    | "input_len" ->
      let r = fresh_reg ctx.func in
      emit ctx (Input_len r);
      Reg r
    | _ ->
      let r = fresh_reg ctx.func in
      emit ctx (Call (Some r, fn, vargs));
      Reg r)

and resolve_array ctx env a =
  match Smap.find_opt a env with
  | Some (Barray resolved) -> resolved
  | Some (Bslot _) | Some (Bgscalar _) -> errorf "scalar %s indexed" a
  | None ->
    if Hashtbl.mem ctx.prog_arrays a then a
    else errorf "unbound array %s" a

(* Lower an expression used only for its truth value into a branch. *)
let rec lower_cond ctx env (e : A.expr) ~(ltrue : label) ~(lfalse : label) =
  match e with
  | A.Binary (A.Land, a, b)
    when not (ctx.opts.merge_conditionals && pure a && pure b) ->
    let mid = new_block ctx in
    lower_cond ctx env a ~ltrue:mid.label ~lfalse;
    switch_to ctx mid;
    lower_cond ctx env b ~ltrue ~lfalse
  | A.Binary (A.Lor, a, b)
    when not (ctx.opts.merge_conditionals && pure a && pure b) ->
    let mid = new_block ctx in
    lower_cond ctx env a ~ltrue ~lfalse:mid.label;
    switch_to ctx mid;
    lower_cond ctx env b ~ltrue ~lfalse
  | A.Unary (A.Lnot, e) -> lower_cond ctx env e ~ltrue:lfalse ~lfalse:ltrue
  | _ ->
    let v = lower_expr ctx env e in
    set_term ctx (Br (v, ltrue, lfalse))

(* ------------------------------------------------------------------ *)
(* Vectorization pattern matching                                      *)
(* ------------------------------------------------------------------ *)

(* A counted loop [for (i = e0; i < bound; i++) body] qualifies for
   vectorization when every statement in [body] is either an element-wise
   array store [a[i] = e] or an add-reduction [acc += e], with [e] pure,
   indexing arrays only at exactly [i], and never reading [acc] except in
   its own reduction. *)

type vec_stmt =
  | Vmap of string * A.expr  (** a[i] = e *)
  | Vred of string * A.expr  (** acc += e *)

let rec vec_expr_ok ~ivar e =
  match e with
  | A.Int _ -> true
  | A.Var v -> v <> ivar  (* loop-invariant scalar; i itself not supported *)
  | A.Index (_, A.Var v) -> v = ivar
  | A.Index (_, _) -> false
  | A.Unary (A.Neg, e) -> vec_expr_ok ~ivar e
  | A.Unary (_, _) -> false
  | A.Binary ((A.Add | A.Sub | A.Mul | A.Band | A.Bor | A.Bxor), a, b) ->
    vec_expr_ok ~ivar a && vec_expr_ok ~ivar b
  | A.Binary (_, _, _) -> false
  | A.Ternary _ | A.Call _ -> false

(* Scalars [e] reads; unlike the loop passes' [expr_vars], array names
   are left out: indexing is already restricted to [a[i]]. *)
let vars_of e =
  Minic.Ast_walk.fold_expr
    (fun acc -> function A.Var v -> v :: acc | _ -> acc)
    [] e

let classify_vec_stmt ~ivar (s : A.stmt) =
  match s with
  | A.Store (arr, A.Var v, e) when v = ivar && vec_expr_ok ~ivar e ->
    Some (Vmap (arr, e))
  | A.Assign (acc, A.Binary (A.Add, A.Var acc', e))
    when acc = acc' && acc <> ivar && vec_expr_ok ~ivar e
         && not (List.exists (fun v -> v = acc) (vars_of e)) ->
    Some (Vred (acc, e))
  | A.Decl _ | A.Array_decl _ | A.Assign _ | A.Store _ | A.If _ | A.While _
  | A.Do_while _ | A.For _ | A.Switch _ | A.Return _ | A.Break | A.Continue
  | A.Expr_stmt _ | A.Block _ ->
    None

let match_vectorizable ~init ~cond ~step ~body =
  let ivar_and_start =
    match init with
    | Some (A.Assign (i, e0)) | Some (A.Decl (i, Some e0)) -> Some (i, e0)
    | _ -> None
  in
  match ivar_and_start with
  | None -> None
  | Some (ivar, start) -> (
    let bound =
      match cond with
      | Some (A.Binary (A.Lt, A.Var v, b)) when v = ivar && pure b -> Some b
      | _ -> None
    in
    let step_ok =
      match step with
      | Some (A.Assign (v, A.Binary (A.Add, A.Var v', A.Int 1)))
        when v = ivar && v' = ivar ->
        true
      | _ -> false
    in
    match bound with
    | Some b when step_ok && pure start -> (
      let classified = List.map (classify_vec_stmt ~ivar) body in
      if body <> [] && List.for_all Option.is_some classified then
        (* each reduction target must not appear in any other statement *)
        let stmts = List.map Option.get classified in
        let red_targets =
          List.filter_map (function Vred (a, _) -> Some a | Vmap _ -> None) stmts
        in
        let uses_target t =
          List.exists
            (function
              | Vmap (_, e) -> List.mem t (vars_of e)
              | Vred (a, e) -> a <> t && List.mem t (vars_of e))
            stmts
        in
        if List.exists uses_target red_targets then None
        else Some (ivar, start, b, stmts)
      else None)
    | Some _ | None -> None)

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let alloc_slot ctx =
  let s = ctx.func.nslots in
  ctx.func.nslots <- s + 1;
  s

let store_var ctx env name v =
  match Smap.find_opt name env with
  | Some (Bslot s) -> emit ctx (Slot_store (s, v))
  | Some (Bgscalar g) -> emit ctx (Store (g, Imm 0, v))
  | Some (Barray _) -> errorf "assignment to array %s" name
  | None -> errorf "assignment to unbound %s" name

(* Lower [e] as a 4-lane vector value; scalar subexpressions are splatted. *)
let rec lower_vec_expr ctx env ~iv (e : A.expr) : reg =
  match e with
  | A.Int n ->
    let v = fresh_vreg ctx.func in
    emit ctx (Vsplat (v, Imm n));
    v
  | A.Var x ->
    let s = lower_expr ctx env (A.Var x) in
    let v = fresh_vreg ctx.func in
    emit ctx (Vsplat (v, s));
    v
  | A.Index (a, A.Var _) ->
    let name = resolve_array ctx env a in
    let v = fresh_vreg ctx.func in
    emit ctx (Vload (v, name, Reg iv));
    v
  | A.Unary (A.Neg, e) ->
    let zero = fresh_vreg ctx.func in
    emit ctx (Vsplat (zero, Imm 0));
    let ve = lower_vec_expr ctx env ~iv e in
    let v = fresh_vreg ctx.func in
    emit ctx (Vbin (Sub, v, zero, ve));
    v
  | A.Binary (op, a, b) ->
    let va = lower_vec_expr ctx env ~iv a in
    let vb = lower_vec_expr ctx env ~iv b in
    let v = fresh_vreg ctx.func in
    emit ctx (Vbin (binop_of_ast op, v, va, vb));
    v
  | A.Index _ | A.Unary _ | A.Ternary _ | A.Call _ ->
    errorf "lower_vec_expr: rejected expression slipped through"

let rec lower_stmts ctx env stmts =
  ignore (List.fold_left (fun env s -> lower_stmt ctx env s) env stmts)

and lower_stmt ctx env (s : A.stmt) : binding Smap.t =
  match s with
  | A.Decl (name, init) ->
    let slot = alloc_slot ctx in
    let env = Smap.add name (Bslot slot) env in
    (match init with
    | None -> ()
    | Some e ->
      let v = lower_expr ctx env e in
      emit ctx (Slot_store (slot, v)));
    env
  | A.Array_decl (name, size, init) ->
    ctx.local_counter <- ctx.local_counter + 1;
    let resolved = Printf.sprintf "%s$%s$%d" ctx.func.fname name ctx.local_counter in
    ctx.func.local_arrays <- ctx.func.local_arrays @ [ (resolved, size, init) ];
    Smap.add name (Barray resolved) env
  | A.Assign (name, e) ->
    let v = lower_expr ctx env e in
    store_var ctx env name v;
    env
  | A.Store (arr, idx, e) ->
    let name = resolve_array ctx env arr in
    let vi = lower_expr ctx env idx in
    let v = lower_expr ctx env e in
    emit ctx (Store (name, vi, v));
    env
  | A.If (cond, then_s, else_s) ->
    let then_b = new_block ctx in
    if else_s = [] then begin
      let join = new_block ctx in
      lower_cond ctx env cond ~ltrue:then_b.label ~lfalse:join.label;
      switch_to ctx then_b;
      lower_stmts ctx env then_s;
      set_term ctx (Jmp join.label);
      switch_to ctx join
    end
    else begin
      let else_b = new_block ctx in
      let join = new_block ctx in
      lower_cond ctx env cond ~ltrue:then_b.label ~lfalse:else_b.label;
      switch_to ctx then_b;
      lower_stmts ctx env then_s;
      set_term ctx (Jmp join.label);
      switch_to ctx else_b;
      lower_stmts ctx env else_s;
      set_term ctx (Jmp join.label);
      switch_to ctx join
    end;
    env
  | A.While (cond, body) ->
    let header = new_block ctx in
    let body_b = new_block ctx in
    let exit_b = new_block ctx in
    set_term ctx (Jmp header.label);
    switch_to ctx header;
    lower_cond ctx env cond ~ltrue:body_b.label ~lfalse:exit_b.label;
    ctx.break_targets <- exit_b.label :: ctx.break_targets;
    ctx.continue_targets <- Some header.label :: ctx.continue_targets;
    switch_to ctx body_b;
    lower_stmts ctx env body;
    set_term ctx (Jmp header.label);
    ctx.break_targets <- List.tl ctx.break_targets;
    ctx.continue_targets <- List.tl ctx.continue_targets;
    switch_to ctx exit_b;
    env
  | A.Do_while (body, cond) ->
    let body_b = new_block ctx in
    let cond_b = new_block ctx in
    let exit_b = new_block ctx in
    set_term ctx (Jmp body_b.label);
    ctx.break_targets <- exit_b.label :: ctx.break_targets;
    ctx.continue_targets <- Some cond_b.label :: ctx.continue_targets;
    switch_to ctx body_b;
    lower_stmts ctx env body;
    set_term ctx (Jmp cond_b.label);
    switch_to ctx cond_b;
    lower_cond ctx env cond ~ltrue:body_b.label ~lfalse:exit_b.label;
    ctx.break_targets <- List.tl ctx.break_targets;
    ctx.continue_targets <- List.tl ctx.continue_targets;
    switch_to ctx exit_b;
    env
  | A.For (init, cond, step, body) -> (
    match
      if ctx.opts.vectorize then match_vectorizable ~init ~cond ~step ~body
      else None
    with
    | Some (ivar, start, bound, stmts) ->
      lower_vectorized ctx env ~ivar ~start ~bound stmts;
      env
    | None ->
      let env' =
        match init with
        | None -> env
        | Some s -> lower_stmt ctx env s
      in
      let header = new_block ctx in
      let body_b = new_block ctx in
      let step_b = new_block ctx in
      let exit_b = new_block ctx in
      set_term ctx (Jmp header.label);
      switch_to ctx header;
      (match cond with
      | None -> set_term ctx (Jmp body_b.label)
      | Some c -> lower_cond ctx env' c ~ltrue:body_b.label ~lfalse:exit_b.label);
      ctx.break_targets <- exit_b.label :: ctx.break_targets;
      ctx.continue_targets <- Some step_b.label :: ctx.continue_targets;
      switch_to ctx body_b;
      lower_stmts ctx env' body;
      set_term ctx (Jmp step_b.label);
      switch_to ctx step_b;
      (match step with
      | None -> ()
      | Some s -> ignore (lower_stmt ctx env' s));
      set_term ctx (Jmp header.label);
      ctx.break_targets <- List.tl ctx.break_targets;
      ctx.continue_targets <- List.tl ctx.continue_targets;
      switch_to ctx exit_b;
      env)
  | A.Switch (scrutinee, cases, default) ->
    let v = lower_expr ctx env scrutinee in
    let exit_b = new_block ctx in
    (* one block per case group, in source order, for fallthrough *)
    let case_blocks = List.map (fun c -> (c, new_block ctx)) cases in
    let default_block =
      match default with
      | None -> None
      | Some body -> Some (body, new_block ctx)
    in
    let table =
      List.concat_map
        (fun ((labels, _), blk) -> List.map (fun l -> (l, blk.label)) labels)
        case_blocks
    in
    let default_label =
      match default_block with
      | Some (_, blk) -> blk.label
      | None -> exit_b.label
    in
    set_term ctx (Switch (v, table, default_label));
    ctx.break_targets <- exit_b.label :: ctx.break_targets;
    ctx.continue_targets <- None :: ctx.continue_targets;
    (* fallthrough chain: each group falls into the next, last falls into
       default (or exit) *)
    let rec emit_groups groups =
      match groups with
      | [] -> ()
      | ((_, body), blk) :: rest ->
        let next_label =
          match rest with
          | (_, nb) :: _ -> nb.label
          | [] -> default_label
        in
        switch_to ctx blk;
        lower_stmts ctx env body;
        set_term ctx (Jmp next_label);
        emit_groups rest
    in
    emit_groups case_blocks;
    (match default_block with
    | None -> ()
    | Some (body, blk) ->
      switch_to ctx blk;
      lower_stmts ctx env body;
      set_term ctx (Jmp exit_b.label));
    ctx.break_targets <- List.tl ctx.break_targets;
    ctx.continue_targets <- List.tl ctx.continue_targets;
    switch_to ctx exit_b;
    env
  | A.Return e ->
    let v = match e with None -> Imm 0 | Some e -> lower_expr ctx env e in
    set_term ctx (Ret (Some v));
    (* statements after return land in an unreachable block *)
    let dead = new_block ctx in
    switch_to ctx dead;
    env
  | A.Break -> (
    match ctx.break_targets with
    | target :: _ ->
      set_term ctx (Jmp target);
      let dead = new_block ctx in
      switch_to ctx dead;
      env
    | [] -> errorf "%s: break outside loop/switch" ctx.func.fname)
  | A.Continue -> (
    let rec find = function
      | Some target :: _ -> Some target
      | None :: rest -> find rest
      | [] -> None
    in
    match find ctx.continue_targets with
    | Some target ->
      set_term ctx (Jmp target);
      let dead = new_block ctx in
      switch_to ctx dead;
      env
    | None -> errorf "%s: continue outside loop" ctx.func.fname)
  | A.Expr_stmt e ->
    ignore (lower_expr ctx env e);
    env
  | A.Block body ->
    (* inner scope: declarations do not escape *)
    lower_stmts ctx env body;
    env

(* Emit:  i = start
          vec loop while i + 3 < bound (vector body, i += 4)
          scalar epilogue while i < bound *)
and lower_vectorized ctx env ~ivar ~start ~bound stmts =
  let islot = alloc_slot ctx in
  let env = Smap.add ivar (Bslot islot) env in
  let vstart = lower_expr ctx env start in
  emit ctx (Slot_store (islot, vstart));
  let vbound = lower_expr ctx env bound in
  let bound_reg = fresh_reg ctx.func in
  emit ctx (Mov (bound_reg, vbound));
  (* reduction accumulators: one vector register each, zero-initialized.
     The accumulator vregs must be stable across the loop, so allocate
     them up front. *)
  let reductions =
    List.filter_map
      (function Vred (acc, e) -> Some (acc, e, fresh_vreg ctx.func) | Vmap _ -> None)
      stmts
  in
  List.iter (fun (_, _, vr) -> emit ctx (Vsplat (vr, Imm 0))) reductions;
  let vheader = new_block ctx in
  let vbody = new_block ctx in
  let reduce_b = new_block ctx in
  let eheader = new_block ctx in
  let ebody = new_block ctx in
  let exit_b = new_block ctx in
  set_term ctx (Jmp vheader.label);
  (* vector header: i + 3 < bound ? *)
  switch_to ctx vheader;
  let i1 = fresh_reg ctx.func in
  emit ctx (Slot_load (i1, islot));
  let i3 = fresh_reg ctx.func in
  emit ctx (Bin (Add, i3, Reg i1, Imm 3));
  let c = fresh_reg ctx.func in
  emit ctx (Bin (Slt, c, Reg i3, Reg bound_reg));
  set_term ctx (Br (Reg c, vbody.label, reduce_b.label));
  (* vector body *)
  switch_to ctx vbody;
  let iv = fresh_reg ctx.func in
  emit ctx (Slot_load (iv, islot));
  List.iter
    (fun stmt ->
      match stmt with
      | Vmap (arr, e) ->
        let name = resolve_array ctx env arr in
        let v = lower_vec_expr ctx env ~iv e in
        emit ctx (Vstore (name, Reg iv, v))
      | Vred (acc, e) ->
        let _, _, vr = List.find (fun (a, _, _) -> a = acc) reductions in
        let v = lower_vec_expr ctx env ~iv e in
        emit ctx (Vbin (Add, vr, vr, v)))
    stmts;
  let inext = fresh_reg ctx.func in
  emit ctx (Bin (Add, inext, Reg iv, Imm 4));
  emit ctx (Slot_store (islot, Reg inext));
  set_term ctx (Jmp vheader.label);
  (* fold vector reductions into their scalar accumulators *)
  switch_to ctx reduce_b;
  List.iter
    (fun (acc, _, vr) ->
      let partial = fresh_reg ctx.func in
      emit ctx (Vreduce (Add, partial, vr));
      let cur = lower_expr ctx env (A.Var acc) in
      let sum = fresh_reg ctx.func in
      emit ctx (Bin (Add, sum, cur, Reg partial));
      store_var ctx env acc (Reg sum))
    reductions;
  set_term ctx (Jmp eheader.label);
  (* scalar epilogue: while (i < bound) body; i++ *)
  switch_to ctx eheader;
  let ie = fresh_reg ctx.func in
  emit ctx (Slot_load (ie, islot));
  let ce = fresh_reg ctx.func in
  emit ctx (Bin (Slt, ce, Reg ie, Reg bound_reg));
  set_term ctx (Br (Reg ce, ebody.label, exit_b.label));
  switch_to ctx ebody;
  List.iter
    (fun stmt ->
      match stmt with
      | Vmap (arr, e) ->
        ignore (lower_stmt ctx env (A.Store (arr, A.Var ivar, e)))
      | Vred (acc, e) ->
        ignore
          (lower_stmt ctx env
             (A.Assign (acc, A.Binary (A.Add, A.Var acc, e)))))
    stmts;
  let ie2 = fresh_reg ctx.func in
  emit ctx (Slot_load (ie2, islot));
  let ie3 = fresh_reg ctx.func in
  emit ctx (Bin (Add, ie3, Reg ie2, Imm 1));
  emit ctx (Slot_store (islot, Reg ie3));
  set_term ctx (Jmp eheader.label);
  switch_to ctx exit_b

(* ------------------------------------------------------------------ *)
(* Functions and programs                                              *)
(* ------------------------------------------------------------------ *)

let lower_function opts prog_arrays global_scalars (f : A.func) : func =
  let nparams = List.length f.params in
  let func =
    {
      fname = f.fname;
      params = List.init nparams (fun i -> i);
      blocks = [];
      next_reg = nparams;
      next_vreg = 0;
      next_label = 0;
      nslots = 0;
      local_arrays = [];
    }
  in
  let ctx =
    {
      func;
      opts;
      prog_arrays;
      cur = { label = -1; instrs = []; term = Ret None };
      break_targets = [];
      continue_targets = [];
      local_counter = 0;
    }
  in
  let entry = new_block ctx in
  ctx.cur <- entry;
  (* -O0 shape: spill parameters to slots at entry *)
  let env =
    List.fold_left
      (fun env (idx, name) ->
        let slot = alloc_slot ctx in
        emit ctx (Slot_store (slot, Reg idx));
        Smap.add name (Bslot slot) env)
      Smap.empty
      (List.mapi (fun i n -> (i, n)) f.params)
  in
  let env =
    List.fold_left
      (fun env g -> Smap.add g (Bgscalar g) env)
      env global_scalars
  in
  (* globals that are arrays resolve through prog_arrays in resolve_array;
     but locals shadow them via env, which is exactly C scoping *)
  lower_stmts ctx env f.body;
  (* implicit return 0 at the end of the function *)
  set_term ctx (Ret (Some (Imm 0)));
  (* restore construction order (see [new_block]/[emit]) *)
  func.blocks <- List.rev func.blocks;
  List.iter (fun b -> b.instrs <- List.rev b.instrs) func.blocks;
  func

let lower_program ?(options = default_options) (p : A.program) : program =
  let prog_arrays = Hashtbl.create 16 in
  let global_scalars = ref [] in
  let globals =
    List.map
      (fun g ->
        match g with
        | A.Gvar (n, v) ->
          global_scalars := n :: !global_scalars;
          (n, Gscalar v)
        | A.Garr (n, size, init) ->
          Hashtbl.replace prog_arrays n ();
          (n, Garray (size, init)))
      p.globals
  in
  let funcs =
    List.map
      (fun f -> lower_function options prog_arrays !global_scalars f)
      p.funcs
  in
  (* local arrays become per-function frame data; register their resolved
     names so codegen and the VM can find them.  Nothing to do here: they
     live in [func.local_arrays]. *)
  { globals; funcs }
