(** The one traversal of the MinC tree.

    Every structural query over MinC (which names an expression reads,
    what a statement list writes, whether it calls or returns, how big it
    is) is a fold or an [exists] over this module, so each query decides
    only {e what} to select, never {e which children} to visit.  Walks
    whose shape depends on scope (binder renaming, [Sema]'s environment)
    or on control flow (lowering, jump escape, call-evaluation order)
    stay hand-written in their own modules. *)

open Ast

(** {1 Folds} *)

val fold_expr : ('a -> expr -> 'a) -> 'a -> expr -> 'a
(** Pre-order, left-to-right over [e] and every sub-expression
    (call arguments in order). *)

val fold_stmts :
  stmt:('a -> stmt -> 'a) -> expr:('a -> expr -> 'a) -> 'a -> stmt list -> 'a
(** Pre-order, left-to-right over every statement at any depth and every
    expression node in them, in source order: a [For] visits its init,
    condition, step and then its body; a [Do_while] its body before its
    condition; a [Switch] its scrutinee, each case body, then the
    default.  [stmt] sees a statement before anything inside it. *)

val exists_expr : (expr -> bool) -> expr -> bool
(** Some node of the expression satisfies the predicate. *)

val exists :
  stmt:(stmt -> bool) -> expr:(expr -> bool) -> stmt list -> bool
(** Some statement satisfies [stmt] or some expression node satisfies
    [expr], anywhere in the list. *)

(** {1 Sizes}

    Node counts: one per expression node and per statement, except that
    a [Block] counts only its contents.  Inlining and unrolling budgets
    are stated in these units. *)

val stmts_size : stmt list -> int
val func_size : func -> int
val program_size : program -> int

(** {1 Rewrites} *)

val rename_expr : (string -> string) -> expr -> expr
(** Apply the renaming to every scalar and array reference. *)

val rename : (string -> string) -> stmt list -> stmt list
(** Apply the renaming to every reference — reads, assignment and store
    targets — at any depth, and never to a binder: [Decl] and
    [Array_decl] names stay as they are. *)

val map_stmts : (stmt -> stmt list) -> stmt list -> stmt list
(** [map_stmts g ss] rewrites bottom-up: every statement list nested in
    [ss] (branch, loop, case and block bodies) is rewritten first, then
    [g] replaces each statement by a list spliced into the enclosing
    list, so a pass can add declarations to the surrounding scope.  [g]
    never sees a [For]'s init or step — they are single statements, not
    lists — which [Passes.Ast_opt.normalize_calls] relies on to leave
    loop headers alone. *)

val map_program : (stmt -> stmt list) -> program -> program
(** {!map_stmts} over every function body. *)
