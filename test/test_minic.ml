(* Frontend tests: lexer, parser, semantic checks. *)

open Minic

let parse_expr_string s = Ast.expr_to_string (Parser.parse_expr s)

let test_lexer_tokens () =
  let toks = List.map fst (Lexer.tokenize "x += 0x1F << 2; // comment") in
  Alcotest.(check int) "token count" 7 (List.length toks);
  match toks with
  | [ IDENT "x"; PLUS_ASSIGN; INT 31; SHL; INT 2; SEMI; EOF ] -> ()
  | _ -> Alcotest.fail "unexpected tokens"

let test_lexer_char_literals () =
  match List.map fst (Lexer.tokenize "'a' '\\n' '\\''") with
  | [ INT 97; INT 10; INT 39; EOF ] -> ()
  | _ -> Alcotest.fail "char literals"

let test_lexer_string () =
  match List.map fst (Lexer.tokenize "\"hi\\n\"") with
  | [ STRING "hi\n"; EOF ] -> ()
  | _ -> Alcotest.fail "string literal"

let test_lexer_block_comment () =
  match List.map fst (Lexer.tokenize "a /* b \n c */ d") with
  | [ IDENT "a"; IDENT "d"; EOF ] -> ()
  | _ -> Alcotest.fail "block comment"

let test_lexer_errors () =
  Alcotest.check_raises "unterminated comment"
    (Lexer.Error ("unterminated comment", 1))
    (fun () -> ignore (Lexer.tokenize "/* oops"));
  Alcotest.check_raises "bad char"
    (Lexer.Error ("unexpected character '@'", 1))
    (fun () -> ignore (Lexer.tokenize "@"))

let test_expr_precedence () =
  Alcotest.(check string) "mul binds tighter" "(1 + (2 * 3))"
    (parse_expr_string "1 + 2 * 3");
  Alcotest.(check string) "shift vs compare" "((1 << 2) < 9)"
    (parse_expr_string "1 << 2 < 9");
  Alcotest.(check string) "and/or" "((a && b) || c)"
    (parse_expr_string "a && b || c");
  Alcotest.(check string) "ternary" "(a ? b : (c ? d : e))"
    (parse_expr_string "a ? b : c ? d : e");
  Alcotest.(check string) "unary minus" "(-3 + x)" (parse_expr_string "-3 + x")

let test_parse_program_shapes () =
  let p =
    Parser.parse
      {|
      int g = 4;
      int arr[3] = {1, 2};
      int msg[] = "ab";
      int f(int a, int b) { return a + b; }
      int main() {
        int x = f(g, 2);
        for (int i = 0; i < 3; i++) { x += arr[i]; }
        do { x--; } while (x > 10);
        switch (x) { case 1: case 2: break; default: x = 0; }
        return x;
      }
      |}
  in
  Alcotest.(check int) "globals" 3 (List.length p.Ast.globals);
  Alcotest.(check int) "funcs" 2 (List.length p.Ast.funcs);
  match p.Ast.globals with
  | [ Ast.Gvar ("g", 4); Ast.Garr ("arr", 3, [ 1; 2 ]); Ast.Garr ("msg", 3, [ 97; 98; 0 ]) ]
    -> ()
  | _ -> Alcotest.fail "global shapes"

let test_parse_errors () =
  let expect_error src =
    match Parser.parse src with
    | exception Parser.Error _ -> ()
    | exception Lexer.Error _ -> ()
    | _ -> Alcotest.fail ("should not parse: " ^ src)
  in
  expect_error "int f( { }";
  expect_error "int f() { return; ";
  expect_error "int f() { x = ; }";
  expect_error "int a[] ;"

let test_sema_accepts_corpus () =
  List.iter
    (fun b -> ignore (Corpus.program b))
    Corpus.all

let expect_sema_error src =
  match Sema.analyze src with
  | exception Sema.Error _ -> ()
  | _ -> Alcotest.fail "sema should reject"

let test_sema_rejects () =
  expect_sema_error "int main() { return y; }";
  expect_sema_error "int main() { int x; x[0] = 1; }";
  expect_sema_error "int a[2]; int main() { a = 1; }";
  expect_sema_error "int f(int x) { return x; } int main() { return f(); }";
  expect_sema_error "int main() { break; }";
  expect_sema_error "int f() { return 0; }";
  (* no main *)
  expect_sema_error "int main(int x) { return x; }";
  expect_sema_error "int main() { return 0; } int main() { return 1; }";
  expect_sema_error
    "int main() { switch (1) { case 1: break; case 1: break; } return 0; }"

let test_stdlib_linked () =
  let p = Sema.analyze "int main() { return strlen(0); }" in
  Alcotest.(check bool) "strlen present" true
    (List.exists (fun f -> f.Ast.fname = "strlen") p.Ast.funcs);
  Alcotest.(check bool) "__mem present" true
    (List.exists
       (function Ast.Garr ("__mem", _, _) -> true | _ -> false)
       p.Ast.globals)

let test_stdlib_not_duplicated () =
  let p = Sema.analyze "int strlen(int x) { return x; } int main() { return strlen(3); }" in
  let count =
    List.length (List.filter (fun f -> f.Ast.fname = "strlen") p.Ast.funcs)
  in
  Alcotest.(check int) "user strlen wins" 1 count

let test_ast_size_measures () =
  let p = Sema.analyze "int main() { int x = 1 + 2; return x; }" in
  Alcotest.(check bool) "program size positive" true (Ast_walk.program_size p > 0)

(* Ast_walk: one statement of every constructor, every expression
   constructor somewhere, and a [For] with init, condition and step. *)
let walk_sample =
  Ast.
    [
      Decl ("d", Some (Int 1));
      Array_decl ("arr", 4, [ 0 ]);
      Assign ("x", Unary (Neg, Var "y"));
      Store
        ( "arr",
          Var "i",
          Binary (Add, Index ("arr", Int 0), Call ("f", [ Int 2; Var "z" ])) );
      If (Var "c", [ Break ], [ Continue ]);
      While (Int 3, [ Expr_stmt (Ternary (Var "t", Int 4, Int 5)) ]);
      Do_while ([ Return None ], Var "w");
      For
        ( Some (Decl ("i", Some (Int 6))),
          Some (Var "fc"),
          Some (Assign ("i", Int 7)),
          [ Return (Some (Int 8)) ] );
      Switch
        ( Var "s",
          [ ([ 1 ], [ Decl ("e", None) ]) ],
          Some [ Block [ Expr_stmt (Int 9) ] ] );
    ]

let stmt_label = function
  | Ast.Decl (n, _) -> "decl " ^ n
  | Array_decl (n, _, _) -> "array " ^ n
  | Assign (n, _) -> "assign " ^ n
  | Store (a, _, _) -> "store " ^ a
  | If _ -> "if"
  | While _ -> "while"
  | Do_while _ -> "do"
  | For _ -> "for"
  | Switch _ -> "switch"
  | Return _ -> "return"
  | Break -> "break"
  | Continue -> "continue"
  | Expr_stmt _ -> "expr"
  | Block _ -> "block"

let expr_label = function
  | Ast.Int n -> string_of_int n
  | Var v -> v
  | Index (a, _) -> a ^ "[]"
  | Unary _ -> "neg"
  | Binary _ -> "+"
  | Call (f, _) -> f ^ "()"
  | Ternary _ -> "?:"

let test_walk_preorder () =
  let seq =
    List.rev
      (Ast_walk.fold_stmts
         ~stmt:(fun acc s -> stmt_label s :: acc)
         ~expr:(fun acc e -> expr_label e :: acc)
         [] walk_sample)
  in
  Alcotest.(check (list string)) "pre-order, source order"
    [
      "decl d"; "1"; "array arr"; "assign x"; "neg"; "y"; "store arr"; "i";
      "+"; "arr[]"; "0"; "f()"; "2"; "z"; "if"; "c"; "break"; "continue";
      "while"; "3"; "expr"; "?:"; "t"; "4"; "5"; "do"; "return"; "w"; "for";
      "decl i"; "6"; "fc"; "assign i"; "7"; "return"; "8"; "switch"; "s";
      "decl e"; "block"; "expr"; "9";
    ]
    seq;
  (* one size unit per visited node, except the Block *)
  Alcotest.(check int) "node-count size" (List.length seq - 1)
    (Ast_walk.stmts_size walk_sample);
  Alcotest.(check bool) "exists reaches the switch default" true
    (Ast_walk.exists ~stmt:(fun _ -> false)
       ~expr:(function Ast.Int 9 -> true | _ -> false)
       walk_sample);
  Alcotest.(check bool) "exists reaches the for step" true
    (Ast_walk.exists
       ~stmt:(function Ast.Assign ("i", _) -> true | _ -> false)
       ~expr:(fun _ -> false) walk_sample)

let test_walk_rename_keeps_binders () =
  let prime v = v ^ "'" in
  let ss =
    Ast.
      [
        Decl ("x", Some (Var "x"));
        Array_decl ("a", 2, []);
        Assign ("x", Index ("a", Var "x"));
        For
          ( Some (Decl ("i", Some (Var "x"))),
            Some (Var "i"),
            Some (Assign ("i", Var "i")),
            [ Store ("a", Var "i", Call ("g", [ Var "x" ])) ] );
      ]
  in
  let expected =
    Ast.
      [
        Decl ("x", Some (Var "x'"));
        Array_decl ("a", 2, []);
        Assign ("x'", Index ("a'", Var "x'"));
        For
          ( Some (Decl ("i", Some (Var "x'"))),
            Some (Var "i'"),
            Some (Assign ("i'", Var "i'")),
            [ Store ("a'", Var "i'", Call ("g", [ Var "x'" ])) ] );
      ]
  in
  Alcotest.(check bool) "references renamed, binders and callees kept" true
    (Ast_walk.rename prime ss = expected)

let test_walk_map_stmts_bottom_up () =
  let seen = ref [] in
  let g s =
    seen := s :: !seen;
    match s with
    | Ast.Expr_stmt (Int n) -> [ Ast.Expr_stmt (Int n); Expr_stmt (Int (n * 10)) ]
    | Assign ("i", e) -> [ Assign ("k", e) ]
    | s -> [ s ]
  in
  let loop body =
    Ast.For
      (Some (Assign ("i", Int 0)), None, Some (Assign ("i", Int 1)), body)
  in
  let ss =
    Ast.[ If (Int 1, [ Expr_stmt (Int 1) ], []); loop [ Assign ("i", Int 2) ] ]
  in
  let spliced = Ast.[ Expr_stmt (Int 1); Expr_stmt (Int 10) ] in
  let out = Ast_walk.map_stmts g ss in
  Alcotest.(check bool) "spliced in place; for init/step untouched" true
    (out = Ast.[ If (Int 1, spliced, []); loop [ Assign ("k", Int 2) ] ]);
  Alcotest.(check bool) "children first, parents see rewritten children" true
    (List.rev !seen
    = Ast.
        [
          Expr_stmt (Int 1);
          If (Int 1, spliced, []);
          Assign ("i", Int 2);
          loop [ Assign ("k", Int 2) ];
        ])

let prop_expr_roundtrip_parse =
  (* printing then reparsing a random expression yields the same tree *)
  let rec gen_expr depth =
    let open QCheck.Gen in
    if depth = 0 then
      oneof [ map (fun n -> Ast.Int n) (0 -- 100); return (Ast.Var "x") ]
    else
      frequency
        [
          (2, map (fun n -> Ast.Int n) (0 -- 100));
          (2, return (Ast.Var "x"));
          ( 3,
            map2
              (fun op (a, b) -> Ast.Binary (op, a, b))
              (oneofl Ast.[ Add; Sub; Mul; Div; Band; Shl; Lt; Eq; Land ])
              (pair (gen_expr (depth - 1)) (gen_expr (depth - 1))) );
          (1, map (fun a -> Ast.Unary (Ast.Bnot, a)) (gen_expr (depth - 1)));
        ]
  in
  QCheck.Test.make ~name:"expr print/parse roundtrip" ~count:200
    (QCheck.make (gen_expr 4))
    (fun e ->
      let printed = Ast.expr_to_string e in
      let reparsed = Parser.parse_expr printed in
      (* negative literal folding means Int (-n) can reparse as Unary;
         compare printed forms instead *)
      Ast.expr_to_string reparsed = printed)

let tests =
  [
    Alcotest.test_case "lexer tokens" `Quick test_lexer_tokens;
    Alcotest.test_case "char literals" `Quick test_lexer_char_literals;
    Alcotest.test_case "string literal" `Quick test_lexer_string;
    Alcotest.test_case "block comment" `Quick test_lexer_block_comment;
    Alcotest.test_case "lexer errors" `Quick test_lexer_errors;
    Alcotest.test_case "precedence" `Quick test_expr_precedence;
    Alcotest.test_case "program shapes" `Quick test_parse_program_shapes;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "sema accepts corpus" `Quick test_sema_accepts_corpus;
    Alcotest.test_case "sema rejects" `Quick test_sema_rejects;
    Alcotest.test_case "stdlib linked" `Quick test_stdlib_linked;
    Alcotest.test_case "stdlib not duplicated" `Quick test_stdlib_not_duplicated;
    Alcotest.test_case "ast sizes" `Quick test_ast_size_measures;
    Alcotest.test_case "walk pre-order" `Quick test_walk_preorder;
    Alcotest.test_case "walk rename keeps binders" `Quick
      test_walk_rename_keeps_binders;
    Alcotest.test_case "walk map_stmts bottom-up" `Quick
      test_walk_map_stmts_bottom_up;
    QCheck_alcotest.to_alcotest prop_expr_roundtrip_parse;
  ]
