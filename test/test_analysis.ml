(* CFG, dominators, loops, known-bits, scalar evolution. *)

open Ub_ir
module A = Ub_analysis

let parse = Parser.parse_func_string

let diamond =
  parse
    {|define i8 @d(i1 %c) {
entry:
  br i1 %c, label %t, label %u
t:
  br label %m
u:
  br label %m
m:
  %x = phi i8 [ 1, %t ], [ 2, %u ]
  ret i8 %x
}|}

let loopy =
  parse
    {|define i32 @l(i32 %n, i64* %a) {
entry:
  br label %head
head:
  %i = phi i32 [ 0, %entry ], [ %i1, %body ]
  %c = icmp slt i32 %i, %n
  br i1 %c, label %body, label %exit
body:
  %w = sext i32 %i to i64
  %i1 = add nsw i32 %i, 3
  br label %head
exit:
  ret i32 %i
}|}

let cfg_tests =
  [ Alcotest.test_case "rpo starts at entry" `Quick (fun () ->
        let cfg = A.Cfg.build diamond in
        Alcotest.(check string) "first" "entry" (List.hd (A.Cfg.reachable_blocks cfg)));
    Alcotest.test_case "succ/pred" `Quick (fun () ->
        let cfg = A.Cfg.build diamond in
        Alcotest.(check (list string)) "entry succs" [ "t"; "u" ] (A.Cfg.successors cfg "entry");
        Alcotest.(check (list string)) "m preds" [ "t"; "u" ]
          (List.sort compare (A.Cfg.predecessors cfg "m")));
    Alcotest.test_case "cycle detection" `Quick (fun () ->
        Alcotest.(check bool) "diamond acyclic" false (A.Cfg.has_cycle (A.Cfg.build diamond));
        Alcotest.(check bool) "loop cyclic" true (A.Cfg.has_cycle (A.Cfg.build loopy)));
  ]

let dom_tests =
  [ Alcotest.test_case "diamond dominators" `Quick (fun () ->
        let dom = A.Dom.of_func diamond in
        Alcotest.(check bool) "entry dom m" true (A.Dom.dominates dom "entry" "m");
        Alcotest.(check bool) "t !dom m" false (A.Dom.dominates dom "t" "m");
        Alcotest.(check (option string)) "idom m" (Some "entry") (A.Dom.idom dom "m");
        Alcotest.(check bool) "reflexive" true (A.Dom.dominates dom "t" "t"));
    Alcotest.test_case "loop dominators" `Quick (fun () ->
        let dom = A.Dom.of_func loopy in
        Alcotest.(check bool) "head dom body" true (A.Dom.dominates dom "head" "body");
        Alcotest.(check bool) "head dom exit" true (A.Dom.dominates dom "head" "exit");
        Alcotest.(check bool) "body !dom head" false (A.Dom.strictly_dominates dom "body" "head"));
    Alcotest.test_case "dominance frontier" `Quick (fun () ->
        let dom = A.Dom.of_func diamond in
        let df = A.Dom.frontiers dom in
        Alcotest.(check (list string)) "df(t) = {m}" [ "m" ] (Hashtbl.find df "t"));
  ]

let loop_tests =
  [ Alcotest.test_case "natural loop found" `Quick (fun () ->
        let li = A.Loops.compute loopy in
        match li.A.Loops.loops with
        | [ lp ] ->
          Alcotest.(check string) "header" "head" lp.A.Loops.header;
          Alcotest.(check (list string)) "latches" [ "body" ] lp.A.Loops.latches;
          Alcotest.(check bool) "body in loop" true (List.mem "body" lp.A.Loops.blocks);
          Alcotest.(check (option string)) "preheader" (Some "entry") lp.A.Loops.preheader;
          Alcotest.(check bool) "exit edge" true (List.mem ("head", "exit") lp.A.Loops.exits)
        | l -> Alcotest.failf "expected 1 loop, found %d" (List.length l));
    Alcotest.test_case "invariance" `Quick (fun () ->
        let li = A.Loops.compute loopy in
        let lp = List.hd li.A.Loops.loops in
        Alcotest.(check bool) "n invariant" true
          (A.Loops.operand_invariant loopy lp (Instr.Var "n"));
        Alcotest.(check bool) "i not invariant" false
          (A.Loops.operand_invariant loopy lp (Instr.Var "i")));
  ]

let scev_tests =
  [ Alcotest.test_case "classify the IV" `Quick (fun () ->
        let li = A.Loops.compute loopy in
        let lp = List.hd li.A.Loops.loops in
        match A.Scev.classify loopy lp with
        | [ iv ] ->
          Alcotest.(check string) "var" "i" iv.A.Scev.var;
          Alcotest.(check bool) "nsw" true iv.A.Scev.nsw;
          Alcotest.(check bool) "step" true (iv.A.Scev.step = Instr.Const (Constant.of_int ~width:32 3))
        | l -> Alcotest.failf "expected 1 IV, found %d" (List.length l));
    Alcotest.test_case "exit condition" `Quick (fun () ->
        let li = A.Loops.compute loopy in
        let lp = List.hd li.A.Loops.loops in
        let ivs = A.Scev.classify loopy lp in
        match A.Scev.exit_condition loopy lp ivs with
        | Some (iv, Instr.Slt, Instr.Var "n") -> Alcotest.(check string) "iv" "i" iv.A.Scev.var
        | _ -> Alcotest.fail "exit condition not recognized");
    Alcotest.test_case "scev gives up on freeze (10.1)" `Quick (fun () ->
        (* the same loop stepping by %s, bare and frozen *)
        let ivs step =
          let fn =
            parse
              (Printf.sprintf
                 {|define i32 @l(i32 %%n, i32 %%s) {
entry:
  %%fs = freeze i32 %%s
  br label %%head
head:
  %%i = phi i32 [ 0, %%entry ], [ %%i1, %%body ]
  %%c = icmp slt i32 %%i, %%n
  br i1 %%c, label %%body, label %%exit
body:
  %%i1 = add nsw i32 %%i, %s
  br label %%head
exit:
  ret i32 %%i
}|}
                 step)
          in
          let li = A.Loops.compute fn in
          List.length (A.Scev.classify fn (List.hd li.A.Loops.loops))
        in
        Alcotest.(check int) "bare step: one IV" 1 (ivs "%s");
        Alcotest.(check int) "frozen step: no IV" 0 (ivs "%fs"));
  ]

let known_bits_tests =
  [ Alcotest.test_case "and/or/shl facts" `Quick (fun () ->
        let fn =
          parse
            {|define i8 @k(i8 %x) {
e:
  %m = and i8 %x, 15
  %s = shl i8 %m, 2
  %o = or i8 %s, 3
  ret i8 %o
}|}
        in
        let env = A.Known_bits.analyze fn in
        let f = Hashtbl.find env "s" in
        (* low 2 bits of %s are known zero, top 2 bits too *)
        Alcotest.(check bool) "bit0 zero" true (Ub_support.Bitvec.get_bit f.A.Known_bits.known_zero 0);
        Alcotest.(check bool) "bit7 zero" true (Ub_support.Bitvec.get_bit f.A.Known_bits.known_zero 7);
        let fo = Hashtbl.find env "o" in
        Alcotest.(check bool) "or sets bit0" true (Ub_support.Bitvec.get_bit fo.A.Known_bits.known_one 0));
    Alcotest.test_case "power of two (up to poison!)" `Quick (fun () ->
        let fn =
          parse
            {|define i8 @p(i8 %y) {
e:
  %x = shl i8 1, %y
  ret i8 %x
}|}
        in
        Alcotest.(check bool) "1 << y is pow2 up to poison" true
          (A.Known_bits.is_known_power_of_two fn (Instr.Var "x"));
        Alcotest.(check bool) "nonzero too" true
          (A.Known_bits.is_known_nonzero fn (Instr.Var "x")));
    Alcotest.test_case "not_undef_or_poison" `Quick (fun () ->
        let fn =
          parse
            {|define i8 @p(i8 %y) {
e:
  %f = freeze i8 %y
  %a = add i8 %f, 1
  %b = add nsw i8 %f, 1
  ret i8 %a
}|}
        in
        Alcotest.(check bool) "freeze result clean" true
          (A.Known_bits.not_undef_or_poison fn (Instr.Var "f"));
        Alcotest.(check bool) "plain add of clean is clean" true
          (A.Known_bits.not_undef_or_poison fn (Instr.Var "a"));
        Alcotest.(check bool) "nsw add may be poison" false
          (A.Known_bits.not_undef_or_poison fn (Instr.Var "b"));
        Alcotest.(check bool) "argument may be poison" false
          (A.Known_bits.not_undef_or_poison fn (Instr.Var "y")));
  ]

let () =
  Alcotest.run "analysis"
    [ ("cfg", cfg_tests); ("dom", dom_tests); ("loops", loop_tests); ("scev", scev_tests);
      ("known-bits", known_bits_tests);
    ]
