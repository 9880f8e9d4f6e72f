(* Pass-level unit tests: each flag-gated pass is exercised in isolation
   against the IR interpreter, and its structural effect is asserted
   (the transformation must actually fire on code built to trigger it). *)

let interp_of ast options passes input =
  let ir = Vir.Lower.lower_program ~options ast in
  List.iter (fun f -> List.iter (fun p -> p f) passes) ir.Vir.Ir.funcs;
  let r = Vir.Interp.run ir ~input in
  (Vir.Interp.output_to_string r.output, r.return_value, ir)

let check_same_behaviour ?(options = Vir.Lower.default_options) src passes =
  let ast = Minic.Sema.analyze src in
  let out0, rv0, _ = interp_of ast Vir.Lower.default_options [] [| 3; 4 |] in
  let out1, rv1, ir = interp_of ast options passes [| 3; 4 |] in
  Alcotest.(check string) "output" out0 out1;
  Alcotest.(check int) "return" rv0 rv1;
  ir

let loops_src =
  {|
  int a[64];
  int main() {
    int s = 0;
    for (int i = 0; i < 50; i++) { a[i] = i * input(0); }
    for (int i = 0; i < 50; i++) { s += a[i]; }
    int n = 10;
    do { s += n; n--; } while (n);
    print_int(s);
    return 0;
  }
  |}

let baseline = [ Passes.Cleanup.run_baseline ]

let test_mem2reg_removes_slots () =
  let ir = check_same_behaviour loops_src [ Passes.Cleanup.mem2reg ] in
  List.iter
    (fun f -> Alcotest.(check int) "no slots left" 0 f.Vir.Ir.nslots)
    ir.funcs

let test_lvn_folds_constants () =
  let ast = Minic.Sema.analyze "int main() { int x = 2 + 3; print_int(x * 4); return 0; }" in
  let ir = Vir.Lower.lower_program ast in
  List.iter Passes.Cleanup.run_baseline ir.funcs;
  let main = List.find (fun f -> f.Vir.Ir.fname = "main") ir.funcs in
  (* after folding, the print operand is the constant 20 *)
  let has_const_print =
    List.exists
      (fun b ->
        List.exists
          (function Vir.Ir.Print_int (Vir.Ir.Imm 20) -> true | _ -> false)
          b.Vir.Ir.instrs)
      main.blocks
  in
  Alcotest.(check bool) "folded to print 20" true has_const_print

let test_dce_removes_dead_code () =
  let ast =
    Minic.Sema.analyze
      "int main() { int dead = 5 * 1000; int live = 2; print_int(live); return 0; }"
  in
  let ir = Vir.Lower.lower_program ast in
  let before = Vir.Ir.program_instr_count ir in
  List.iter Passes.Cleanup.run_baseline ir.funcs;
  Alcotest.(check bool) "instructions removed" true
    (Vir.Ir.program_instr_count ir < before)

let test_simplify_cfg_reachability () =
  let ast =
    Minic.Sema.analyze
      "int main() { if (1) { print_int(1); } else { print_int(2); } return 0; }"
  in
  let ir = Vir.Lower.lower_program ast in
  List.iter Passes.Cleanup.run_baseline ir.funcs;
  let main = List.find (fun f -> f.Vir.Ir.fname = "main") ir.funcs in
  Alcotest.(check bool) "dead branch eliminated" true
    (List.length main.blocks <= 2)

let count_instrs pred (ir : Vir.Ir.program) =
  List.fold_left
    (fun acc (f : Vir.Ir.func) ->
      List.fold_left
        (fun acc (b : Vir.Ir.block) ->
          acc + List.length (List.filter pred b.instrs))
        acc f.blocks)
    0 ir.funcs

let count_terms pred (ir : Vir.Ir.program) =
  List.fold_left
    (fun acc (f : Vir.Ir.func) ->
      List.fold_left
        (fun acc (b : Vir.Ir.block) -> if pred b.term then acc + 1 else acc)
        acc f.blocks)
    0 ir.funcs

let test_if_convert_emits_selects () =
  let src =
    "int main() { int s = 0; for (int i = 0; i < 20; i++) { if (i & 1) { s = s + i; } else { s = s - 1; } } print_int(s); return 0; }"
  in
  let ir =
    check_same_behaviour src (baseline @ [ Passes.Ir_opt.if_convert ])
  in
  let selects =
    count_instrs (function Vir.Ir.Select _ -> true | _ -> false) ir
  in
  Alcotest.(check bool) "selects emitted" true (selects > 0)

let test_branch_count_reg_fires () =
  let src =
    "int g = 0; int main() { int n = 9; do { g += n; n--; } while (n); print_int(g); return 0; }"
  in
  let ir =
    check_same_behaviour src (baseline @ [ Passes.Ir_opt.branch_count_reg ])
  in
  let loops =
    count_terms (function Vir.Ir.Loop_branch _ -> true | _ -> false) ir
  in
  Alcotest.(check bool) "loop terminator emitted" true (loops > 0)

let test_tail_call_fires () =
  let src =
    "int even(int n); int odd(int n) { if (n == 0) { return 0; } return even(n - 1); } int even(int n) { if (n == 0) { return 1; } return odd(n - 1); } int main() { print_int(even(10)); return 0; }"
  in
  (* forward declarations are not supported: restructure with one helper *)
  ignore src;
  let src =
    "int helper(int x, int n) { if (n <= 0) { return x; } return helper(x * 2, n - 1); } int main() { print_int(helper(1, 8)); return 0; }"
  in
  let ir = check_same_behaviour src (baseline @ [ Passes.Ir_opt.tail_call ]) in
  let tails =
    count_terms (function Vir.Ir.Tail_call _ -> true | _ -> false) ir
  in
  Alcotest.(check bool) "tail call emitted" true (tails > 0)

let test_strength_reduce_removes_div () =
  let src =
    "int main() { int s = 0; for (int i = -20; i < 20; i++) { s += i / 8 + i % 8 + i * 12; } print_int(s); return 0; }"
  in
  let ir =
    check_same_behaviour src
      (baseline @ [ Passes.Ir_opt.strength_reduce; Passes.Cleanup.run_baseline ])
  in
  let divs =
    count_instrs
      (function
        | Vir.Ir.Bin ((Vir.Ir.Div | Vir.Ir.Mod), _, _, Vir.Ir.Imm _) -> true
        | _ -> false)
      ir
  in
  Alcotest.(check int) "no division by constant left" 0 divs

let test_licm_hoists () =
  let src =
    "int main() { int n = input(0); int s = 0; for (int i = 0; i < 30; i++) { s += n * 13; } print_int(s); return 0; }"
  in
  let ir = check_same_behaviour src (baseline @ [ Passes.Ir_opt.licm ]) in
  let main = List.find (fun f -> f.Vir.Ir.fname = "main") ir.funcs in
  (* the multiply must sit in a block outside the loop *)
  let loops = Passes.Cfg_utils.natural_loops main in
  let in_loop label =
    List.exists (fun l -> Passes.Cfg_utils.Iset.mem label l.Passes.Cfg_utils.body) loops
  in
  let mul_outside =
    List.exists
      (fun (b : Vir.Ir.block) ->
        (not (in_loop b.label))
        && List.exists
             (function
               | Vir.Ir.Bin (Vir.Ir.Mul, _, _, Vir.Ir.Imm 13) -> true
               | _ -> false)
             b.instrs)
      main.blocks
  in
  Alcotest.(check bool) "multiply hoisted" true mul_outside

let test_slp_packs_stores () =
  let src =
    "int a[16]; int main() { a[4] = 11; a[5] = 22; a[6] = 33; a[7] = 44; print_int(a[5]); return 0; }"
  in
  let ir = check_same_behaviour src [ Passes.Ir_opt.slp_vectorize ] in
  let packs = count_instrs (function Vir.Ir.Vpack _ -> true | _ -> false) ir in
  Alcotest.(check bool) "vpack emitted" true (packs > 0)

let test_vectorize_lowering () =
  let src =
    "int a[64]; int b[64]; int main() { int dot = 0; for (int i = 0; i < 64; i++) { a[i] = i; b[i] = i * 2; } for (int i = 0; i < 61; i++) { dot += a[i] * b[i]; } print_int(dot); return 0; }"
  in
  let ast = Minic.Sema.analyze src in
  let out0, rv0, _ = interp_of ast Vir.Lower.default_options [] [||] in
  let out1, rv1, ir =
    interp_of ast { Vir.Lower.merge_conditionals = false; vectorize = true } [] [||]
  in
  Alcotest.(check string) "output" out0 out1;
  Alcotest.(check int) "return" rv0 rv1;
  let vec =
    count_instrs
      (function Vir.Ir.Vbin _ | Vir.Ir.Vload _ -> true | _ -> false)
      ir
  in
  Alcotest.(check bool) "vector instructions" true (vec > 0)

let test_unroll_reduces_backedges () =
  let src =
    "int a[40]; int main() { for (int i = 0; i < 40; i++) { a[i] = i * 3; } print_int(a[39]); return 0; }"
  in
  let ast = Minic.Sema.analyze src in
  let unrolled = Passes.Ast_opt.unroll ~factor:4 ~full_limit:8 ast in
  Minic.Sema.check unrolled;
  let ir0 = Vir.Lower.lower_program ast in
  let ir1 = Vir.Lower.lower_program unrolled in
  let r0 = Vir.Interp.run ir0 ~input:[||] and r1 = Vir.Interp.run ir1 ~input:[||] in
  Alcotest.(check string) "behaviour" (Vir.Interp.output_to_string r0.output)
    (Vir.Interp.output_to_string r1.output);
  Alcotest.(check bool) "fewer dynamic branches" true (r1.steps < r0.steps)

let test_full_unroll_straightlines () =
  let src = "int a[8]; int main() { for (int i = 0; i < 8; i++) { a[i] = i; } print_int(a[7]); return 0; }" in
  let ast = Minic.Sema.analyze src in
  let unrolled = Passes.Ast_opt.unroll ~factor:4 ~full_limit:8 ast in
  let rec stmt_has_for s =
    match s with
    | Minic.Ast.For _ -> true
    | Minic.Ast.While _ | Minic.Ast.Do_while _ -> false
    | Minic.Ast.If (_, t, e) -> List.exists stmt_has_for (t @ e)
    | Minic.Ast.Block b -> List.exists stmt_has_for b
    | _ -> false
  in
  let main = List.find (fun f -> f.Minic.Ast.fname = "main") unrolled.funcs in
  Alcotest.(check bool) "for loop fully unrolled" false
    (List.exists stmt_has_for main.body)

let test_inline_eliminates_calls () =
  let src =
    "int sq(int x) { return x * x; } int main() { print_int(sq(3) + sq(4)); return 0; }"
  in
  let ast = Minic.Sema.analyze src in
  let inlined = Passes.Ast_opt.inline ~max_size:20 ~rounds:1 (Passes.Ast_opt.normalize_calls ast) in
  Minic.Sema.check inlined;
  let ir = Vir.Lower.lower_program inlined in
  let r = Vir.Interp.run ir ~input:[||] in
  Alcotest.(check string) "behaviour" "25\n" (Vir.Interp.output_to_string r.output);
  let main = List.find (fun f -> f.Vir.Ir.fname = "main") ir.funcs in
  let calls_sq =
    List.exists
      (fun (b : Vir.Ir.block) ->
        List.exists
          (function Vir.Ir.Call (_, "sq", _) -> true | _ -> false)
          b.instrs)
      main.blocks
  in
  Alcotest.(check bool) "no calls to sq left" false calls_sq

let test_inline_early_returns () =
  let src =
    "int clam(int x) { if (x < 0) { return 0; } if (x > 9) { return 9; } return x; } int main() { print_int(clam(-5) + clam(20) * 10 + clam(4) * 100); return 0; }"
  in
  ignore (check_same_behaviour src []);
  let ast = Minic.Sema.analyze src in
  let inlined = Passes.Ast_opt.inline ~max_size:40 ~rounds:1 (Passes.Ast_opt.normalize_calls ast) in
  let ir = Vir.Lower.lower_program inlined in
  let r = Vir.Interp.run ir ~input:[||] in
  Alcotest.(check string) "early returns" "490\n"
    (Vir.Interp.output_to_string r.output)

let test_inline_skips_recursive () =
  let src = "int fib(int n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); } int main() { print_int(fib(10)); return 0; }" in
  let ast = Minic.Sema.analyze src in
  let inlined = Passes.Ast_opt.inline ~max_size:100 ~rounds:2 (Passes.Ast_opt.normalize_calls ast) in
  Alcotest.(check bool) "fib survives" true
    (List.exists (fun f -> f.Minic.Ast.fname = "fib") inlined.funcs);
  let ir = Vir.Lower.lower_program inlined in
  let r = Vir.Interp.run ir ~input:[||] in
  Alcotest.(check string) "fib(10)" "55\n" (Vir.Interp.output_to_string r.output)

let test_unswitch_duplicates_loop () =
  let src =
    "int a[32]; int main() { int flag = input(0); int s = 0; for (int i = 0; i < 32; i++) { if (flag) { s += i; } else { s -= i; } a[i] = s; } print_int(s); return 0; }"
  in
  let ast = Minic.Sema.analyze src in
  let sw = Passes.Ast_opt.unswitch ast in
  Minic.Sema.check sw;
  let ir0 = Vir.Lower.lower_program ast and ir1 = Vir.Lower.lower_program sw in
  List.iter
    (fun input ->
      let r0 = Vir.Interp.run ir0 ~input and r1 = Vir.Interp.run ir1 ~input in
      Alcotest.(check string) "unswitch behaviour"
        (Vir.Interp.output_to_string r0.output)
        (Vir.Interp.output_to_string r1.output))
    [ [| 0 |]; [| 1 |] ];
  Alcotest.(check bool) "code grew" true
    (Minic.Ast_walk.program_size sw > Minic.Ast_walk.program_size ast)

let test_distribute_splits () =
  let src =
    "int a[32]; int b[32]; int main() { for (int i = 0; i < 32; i++) { a[i] = 0; b[i] = i * i; } print_int(b[9] + a[3]); return 0; }"
  in
  let ast = Minic.Sema.analyze src in
  let d = Passes.Ast_opt.distribute ast in
  Minic.Sema.check d;
  let ir0 = Vir.Lower.lower_program ast and ir1 = Vir.Lower.lower_program d in
  let r0 = Vir.Interp.run ir0 ~input:[||] and r1 = Vir.Interp.run ir1 ~input:[||] in
  Alcotest.(check string) "behaviour" (Vir.Interp.output_to_string r0.output)
    (Vir.Interp.output_to_string r1.output);
  (* two loops instead of one in main *)
  let count_fors stmts =
    let rec go acc s =
      match s with
      | Minic.Ast.For (_, _, _, b) -> List.fold_left go (acc + 1) b
      | Minic.Ast.While (_, b) | Minic.Ast.Do_while (b, _) ->
        List.fold_left go acc b
      | Minic.Ast.If (_, t, e) -> List.fold_left go acc (t @ e)
      | Minic.Ast.Block b -> List.fold_left go acc b
      | _ -> acc
    in
    List.fold_left go 0 stmts
  in
  let main = List.find (fun f -> f.Minic.Ast.fname = "main") d.funcs in
  Alcotest.(check int) "loop split in two" 2 (count_fors main.body)

(* The committed reproducers under test/minc (a [deps] of this suite;
   read from the source tree when run from the repository root), run
   through one AST pass and compared with the untransformed program
   under a deterministic fuel bound, so a pass that breaks loop exits
   fails instead of hanging. *)
let minc_program name =
  let path = Filename.concat "minc" name in
  let path = if Sys.file_exists path then path else Filename.concat "test" path in
  Minic.Sema.analyze (In_channel.with_open_bin path In_channel.input_all)

let check_ast_pass_preserves name (pname, pass) =
  let ast = minc_program name in
  let run ast =
    let r = Vir.Interp.run ~fuel:1_000_000 (Vir.Lower.lower_program ast) ~input:[||] in
    Vir.Interp.output_to_string r.output
  in
  Alcotest.(check string) (pname ^ " on " ^ name) (run ast) (run (pass ast))

(* The remainder of a distributed loop reads the zeroed array inside a
   nested [if]; splitting the stores out first changes the count. *)
let test_distribute_nested_read () =
  check_ast_pass_preserves "distribute_nested_read.c"
    ("distribute", Passes.Ast_opt.distribute)

(* A [continue] in a switch nested in a switch jumps to the loop, so the
   loop is not a straight-line counted loop: unrolling or peeling it
   would leave the [continue] outside any loop (or spin forever). *)
let test_switch_continue_escapes () =
  List.iter
    (check_ast_pass_preserves "switch_continue.c")
    [
      ("full unroll", Passes.Ast_opt.unroll ~factor:4 ~full_limit:8);
      ("partial unroll", Passes.Ast_opt.unroll ~factor:4 ~full_limit:0);
      ("peel", Passes.Ast_opt.peel);
    ]

let test_unroll_and_jam_fires () =
  let src =
    "int m[64]; int main() { for (int i = 0; i < 8; i = i + 1) { for (int j = 0; j < 8; j = j + 1) { m[i * 8 + j] = i * j + 1; } } int s = 0; for (int i = 0; i < 64; i++) { s += m[i]; } print_int(s); return 0; }"
  in
  let ast = Minic.Sema.analyze src in
  let j = Passes.Ast_opt.unroll_and_jam ast in
  Minic.Sema.check j;
  let ir0 = Vir.Lower.lower_program ast and ir1 = Vir.Lower.lower_program j in
  let r0 = Vir.Interp.run ir0 ~input:[||] and r1 = Vir.Interp.run ir1 ~input:[||] in
  Alcotest.(check string) "behaviour" (Vir.Interp.output_to_string r0.output)
    (Vir.Interp.output_to_string r1.output);
  Alcotest.(check bool) "transformed" true
    (Minic.Ast_walk.program_size j > Minic.Ast_walk.program_size ast)

let test_builtin_expansion () =
  let src =
    "int main() { memset(10, 7, 5); memcpy(20, 10, 5); print_int(__mem[24] + __mem[14]); return 0; }"
  in
  let ast = Minic.Sema.analyze src in
  let e = Passes.Ast_opt.expand_builtins (Passes.Ast_opt.normalize_calls ast) in
  Minic.Sema.check e;
  let ir = Vir.Lower.lower_program e in
  let r = Vir.Interp.run ir ~input:[||] in
  Alcotest.(check string) "behaviour" "14\n" (Vir.Interp.output_to_string r.output);
  let main = List.find (fun f -> f.Vir.Ir.fname = "main") ir.funcs in
  let has_call name =
    List.exists
      (fun (b : Vir.Ir.block) ->
        List.exists
          (function Vir.Ir.Call (_, n, _) -> n = name | _ -> false)
          b.instrs)
      main.blocks
  in
  Alcotest.(check bool) "memset expanded" false (has_call "memset");
  Alcotest.(check bool) "memcpy expanded" false (has_call "memcpy")

let test_reorder_functions () =
  let bench = Corpus.find "coreutils" in
  let ir = Vir.Lower.lower_program (Corpus.program bench) in
  let order0 = List.map (fun f -> f.Vir.Ir.fname) ir.funcs in
  Passes.Ir_opt.reorder_functions ir;
  let order1 = List.map (fun f -> f.Vir.Ir.fname) ir.funcs in
  Alcotest.(check bool) "order changed" true (order0 <> order1);
  Alcotest.(check (list string)) "same set"
    (List.sort compare order0) (List.sort compare order1)

(* Regression for the verifier sweep: if-conversion speculates arm
   instructions above the branch, so the speculated defs read registers
   that are only assigned on some paths.  That is legal here — the junk
   flows only into select data inputs picked on exactly the defined
   paths — and the verifier's taint-to-sink analysis must accept it.
   Before the taint refinement the strict definite-assignment check
   rejected every if-converted function in the corpus (496 failures). *)
let test_verifier_accepts_if_convert () =
  Toolchain.Pipeline.verify_default := true;
  Fun.protect
    ~finally:(fun () -> Toolchain.Pipeline.verify_default := false)
    (fun () ->
      (* distilled shape: mem2reg promotes y, if_convert speculates y+1 *)
      let src =
        "int g(int a) { int y = 0; if (a > 0) { y = a * 2; } int x = 5; if \
         (a > 0) { x = y + 1; } return x; }\n\
         int main() { print_int(g(3)); print_int(g(-1)); return 0; }"
      in
      let prog = Minic.Sema.analyze src in
      List.iter
        (fun preset ->
          ignore
            (Toolchain.Pipeline.compile_preset Toolchain.Flags.gcc preset prog))
        [ "O2"; "O3" ];
      (* the corpus shape that first exposed it: mirai under llvm -O2 on
         arm had 496 sweep failures, all if_convert def-before-use *)
      let bench = Corpus.find "mirai" in
      ignore
        (Toolchain.Pipeline.compile_preset Toolchain.Flags.llvm
           ~arch:Isa.Insn.Arm "O2" (Corpus.program bench)))

let tests =
  [
    Alcotest.test_case "mem2reg" `Quick test_mem2reg_removes_slots;
    Alcotest.test_case "lvn constant folding" `Quick test_lvn_folds_constants;
    Alcotest.test_case "dce" `Quick test_dce_removes_dead_code;
    Alcotest.test_case "simplify-cfg" `Quick test_simplify_cfg_reachability;
    Alcotest.test_case "if-convert" `Quick test_if_convert_emits_selects;
    Alcotest.test_case "branch-count-reg" `Quick test_branch_count_reg_fires;
    Alcotest.test_case "tail call" `Quick test_tail_call_fires;
    Alcotest.test_case "strength reduction" `Quick test_strength_reduce_removes_div;
    Alcotest.test_case "licm" `Quick test_licm_hoists;
    Alcotest.test_case "slp" `Quick test_slp_packs_stores;
    Alcotest.test_case "vectorize" `Quick test_vectorize_lowering;
    Alcotest.test_case "unroll" `Quick test_unroll_reduces_backedges;
    Alcotest.test_case "full unroll" `Quick test_full_unroll_straightlines;
    Alcotest.test_case "inline" `Quick test_inline_eliminates_calls;
    Alcotest.test_case "inline early returns" `Quick test_inline_early_returns;
    Alcotest.test_case "inline skips recursive" `Quick test_inline_skips_recursive;
    Alcotest.test_case "unswitch" `Quick test_unswitch_duplicates_loop;
    Alcotest.test_case "distribute" `Quick test_distribute_splits;
    Alcotest.test_case "distribute nested read" `Quick test_distribute_nested_read;
    Alcotest.test_case "switch continue escapes" `Quick
      test_switch_continue_escapes;
    Alcotest.test_case "unroll-and-jam" `Quick test_unroll_and_jam_fires;
    Alcotest.test_case "builtin expansion" `Quick test_builtin_expansion;
    Alcotest.test_case "reorder functions" `Quick test_reorder_functions;
    Alcotest.test_case "verifier accepts if-convert speculation" `Quick
      test_verifier_accepts_if_convert;
  ]
