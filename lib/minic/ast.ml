(* Abstract syntax of MinC, the C subset every benchmark in the corpus is
   written in.  Semantics: all values are machine integers (OCaml native
   ints standing in for a 64-bit register), arrays are one-dimensional and
   statically sized; there are no pointers beyond array indexing.  Division
   and modulo by zero evaluate to zero (total semantics keep the VM and all
   diffing-tool samplers deterministic). *)

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Band
  | Bor
  | Bxor
  | Shl
  | Shr
  | Lt
  | Le
  | Gt
  | Ge
  | Eq
  | Ne
  | Land  (** short-circuit && *)
  | Lor  (** short-circuit || *)

type unop = Neg | Bnot | Lnot

type expr =
  | Int of int
  | Var of string
  | Index of string * expr  (** arr\[e\] *)
  | Unary of unop * expr
  | Binary of binop * expr * expr
  | Call of string * expr list
  | Ternary of expr * expr * expr

type stmt =
  | Decl of string * expr option  (** int x; / int x = e; *)
  | Array_decl of string * int * int list  (** int a\[n\] = {…}; *)
  | Assign of string * expr
  | Store of string * expr * expr  (** arr\[i\] = e; *)
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | Do_while of stmt list * expr
  | For of stmt option * expr option * stmt option * stmt list
  | Switch of expr * (int list * stmt list) list * stmt list option
      (** cases may carry several labels (fallthrough groups); optional
          default *)
  | Return of expr option
  | Break
  | Continue
  | Expr_stmt of expr
  | Block of stmt list

type func = { fname : string; params : string list; body : stmt list }

type global =
  | Gvar of string * int
  | Garr of string * int * int list  (** name, size, initializer prefix *)

type program = { globals : global list; funcs : func list }

let binop_name = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"
  | Band -> "&"
  | Bor -> "|"
  | Bxor -> "^"
  | Shl -> "<<"
  | Shr -> ">>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | Eq -> "=="
  | Ne -> "!="
  | Land -> "&&"
  | Lor -> "||"

let unop_name = function Neg -> "-" | Bnot -> "~" | Lnot -> "!"

let rec expr_to_string = function
  | Int n -> string_of_int n
  | Var v -> v
  | Index (a, e) -> Printf.sprintf "%s[%s]" a (expr_to_string e)
  | Unary (op, e) -> Printf.sprintf "%s(%s)" (unop_name op) (expr_to_string e)
  | Binary (op, a, b) ->
    Printf.sprintf "(%s %s %s)" (expr_to_string a) (binop_name op)
      (expr_to_string b)
  | Call (f, args) ->
    Printf.sprintf "%s(%s)" f
      (String.concat ", " (List.map expr_to_string args))
  | Ternary (c, a, b) ->
    Printf.sprintf "(%s ? %s : %s)" (expr_to_string c) (expr_to_string a)
      (expr_to_string b)
