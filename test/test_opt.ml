(* The optimizer: per-pass unit behaviour, validator-cleanliness of every
   pass on the corpus, translation validation of the prototype pipeline,
   and detection of the deliberately-unsound legacy variants. *)

open Ub_ir
open Ub_sem
open Ub_opt

let parse = Parser.parse_func_string

let opt_with pass cfg src = (pass : Pass.t).Pass.run cfg (parse src)

let has_insn fn p = Func.count_insns fn p > 0

let instcombine_tests =
  [ Alcotest.test_case "x+0 folds" `Quick (fun () ->
        let fn =
          opt_with Instcombine.pass Pass.prototype
            {|define i8 @f(i8 %x) {
e:
  %y = add i8 %x, 0
  ret i8 %y
}|}
        in
        Alcotest.(check int) "only ret remains" 1 (Func.num_insns fn));
    Alcotest.test_case "mul x,2 -> add x,x (prototype)" `Quick (fun () ->
        let fn =
          opt_with Instcombine.pass Pass.prototype
            {|define i8 @f(i8 %x) {
e:
  %y = mul i8 %x, 2
  ret i8 %y
}|}
        in
        (* then add x,x -> shl x,1 *)
        Alcotest.(check bool) "became shl" true
          (has_insn fn (function Instr.Binop (Instr.Shl, _, _, _, _) -> true | _ -> false)));
    Alcotest.test_case "a+b>a -> b>0 with nsw" `Quick (fun () ->
        let fn =
          opt_with Instcombine.pass Pass.prototype
            {|define i1 @f(i8 %a, i8 %b) {
e:
  %add = add nsw i8 %a, %b
  %cmp = icmp sgt i8 %add, %a
  ret i1 %cmp
}|}
        in
        Alcotest.(check bool) "compares b with 0" true
          (has_insn fn (function
            | Instr.Icmp (Instr.Sgt, _, Instr.Var "b", Instr.Const _) -> true
            | _ -> false)));
    Alcotest.test_case "select -> or uses freeze in prototype" `Quick (fun () ->
        let fn =
          opt_with Instcombine.pass Pass.prototype
            {|define i1 @f(i1 %c, i1 %x) {
e:
  %r = select i1 %c, i1 true, i1 %x
  ret i1 %r
}|}
        in
        Alcotest.(check int) "freeze inserted" 1 (Func.num_freeze fn);
        let legacy =
          opt_with Instcombine.pass Pass.legacy
            {|define i1 @f(i1 %c, i1 %x) {
e:
  %r = select i1 %c, i1 true, i1 %x
  ret i1 %r
}|}
        in
        Alcotest.(check int) "legacy: no freeze" 0 (Func.num_freeze legacy));
    Alcotest.test_case "freeze of freeze folds" `Quick (fun () ->
        let fn =
          opt_with Instcombine.pass Pass.prototype
            {|define i8 @f(i8 %x) {
e:
  %a = freeze i8 %x
  %b = freeze i8 %a
  ret i8 %b
}|}
        in
        Alcotest.(check int) "one freeze" 1 (Func.num_freeze fn));
    Alcotest.test_case "freeze of known-clean value folds away" `Quick (fun () ->
        let fn =
          opt_with Instcombine.pass Pass.prototype
            {|define i8 @f(i8 %x) {
e:
  %f = freeze i8 %x
  %m = and i8 %f, 7
  %a = freeze i8 %m
  ret i8 %a
}|}
        in
        (* the outer freeze folds: its input chains to a frozen value
           through strict, attribute-free ops; the inner one must stay *)
        Alcotest.(check int) "one freeze" 1 (Func.num_freeze fn));
    Alcotest.test_case "freeze of possibly-poison value is kept" `Quick (fun () ->
        let fn =
          opt_with Instcombine.pass Pass.prototype
            {|define i8 @f(i8 %x) {
e:
  %m = and i8 %x, 7
  %a = freeze i8 %m
  ret i8 %a
}|}
        in
        Alcotest.(check int) "freeze kept (x may be poison)" 1 (Func.num_freeze fn));
  ]

let fold_and_sccp_tests =
  [ Alcotest.test_case "constant folding incl. poison strictness" `Quick (fun () ->
        let fn =
          opt_with Constant_fold.pass Pass.prototype
            {|define i8 @f() {
e:
  %a = add i8 2, 3
  %b = mul nsw i8 %a, 30
  %c = add i8 poison, 1
  %d = select i1 true, i8 %a, i8 %c
  ret i8 %d
}|}
        in
        Alcotest.(check int) "all folded" 1 (Func.num_insns fn));
    Alcotest.test_case "division by zero never folds" `Quick (fun () ->
        let fn =
          opt_with Constant_fold.pass Pass.prototype
            {|define i8 @f() {
e:
  %a = udiv i8 1, 0
  ret i8 %a
}|}
        in
        Alcotest.(check bool) "udiv kept" true
          (has_insn fn (function Instr.Binop (Instr.UDiv, _, _, _, _) -> true | _ -> false)));
    Alcotest.test_case "sccp folds through the diamond" `Quick (fun () ->
        let fn =
          opt_with Sccp.pass Pass.prototype
            {|define i8 @f() {
e:
  %c = icmp slt i8 1, 2
  br i1 %c, label %t, label %u
t:
  br label %m
u:
  br label %m
m:
  %x = phi i8 [ 7, %t ], [ 9, %u ]
  ret i8 %x
}|}
        in
        let r = Interp.run fn [] in
        Alcotest.(check string) "returns 7" "ret 7" (Interp.outcome_to_string r.Interp.outcome));
    Alcotest.test_case "sccp does not speculate on arguments" `Quick (fun () ->
        let fn =
          opt_with Sccp.pass Pass.prototype
            {|define i8 @f(i1 %c) {
e:
  br i1 %c, label %t, label %u
t:
  ret i8 1
u:
  ret i8 2
}|}
        in
        Alcotest.(check int) "both rets alive" 3 (List.length fn.Func.blocks));
  ]

let cfg_pass_tests =
  [ Alcotest.test_case "simplifycfg: phi -> select" `Quick (fun () ->
        let fn =
          opt_with Simplifycfg.pass Pass.prototype
            {|define i8 @f(i1 %c, i8 %a, i8 %b) {
e:
  br i1 %c, label %t, label %u
t:
  br label %m
u:
  br label %m
m:
  %x = phi i8 [ %a, %t ], [ %b, %u ]
  ret i8 %x
}|}
        in
        Alcotest.(check bool) "select created" true
          (has_insn fn (function Instr.Select _ -> true | _ -> false));
        Alcotest.(check int) "single block" 1 (List.length fn.Func.blocks));
    Alcotest.test_case "jump threading folds constant branches" `Quick (fun () ->
        let fn =
          opt_with Jump_threading.pass Pass.prototype
            {|define i8 @f() {
e:
  br i1 true, label %t, label %u
t:
  ret i8 1
u:
  ret i8 2
}|}
        in
        Alcotest.(check int) "unreachable arm gone" 2 (List.length fn.Func.blocks));
    Alcotest.test_case "jump threading blocked by freeze (the 19% anomaly)" `Quick (fun () ->
        (* the same branch on true, bare and frozen: neither pipeline's
           jump threading looks through the freeze *)
        let branch_on cond =
          Printf.sprintf
            {|define i8 @f() {
e:
  %%fc = freeze i1 true
  br i1 %s, label %%t, label %%u
t:
  ret i8 1
u:
  ret i8 2
}|}
            cond
        in
        List.iter
          (fun (name, cfg) ->
            let blocks cond =
              List.length (opt_with Jump_threading.pass cfg (branch_on cond)).Func.blocks
            in
            Alcotest.(check int) (name ^ ": bare true is threaded") 2 (blocks "true");
            Alcotest.(check int) (name ^ ": frozen true is not") 3 (blocks "%fc"))
          [ ("baseline", Pass.legacy); ("prototype", Pass.prototype) ]);
    Alcotest.test_case "gvn removes redundancy and propagates equality" `Quick (fun () ->
        let fn =
          opt_with Gvn.pass Pass.prototype
            {|define void @f(i8 %x, i8 %y) {
e:
  %t = add i8 %x, 1
  %cmp = icmp eq i8 %t, %y
  br i1 %cmp, label %then, label %out
then:
  %w = add i8 %x, 1
  call void @foo(i8 %w)
  br label %out
out:
  ret void
}|}
        in
        Alcotest.(check bool) "foo(%y) now" true
          (has_insn fn (function
            | Instr.Call (_, "foo", [ (_, Instr.Var "y") ]) -> true
            | _ -> false)));
    Alcotest.test_case "gvn does not merge freezes" `Quick (fun () ->
        let fn =
          opt_with Gvn.pass Pass.prototype
            {|define i8 @f(i8 %x) {
e:
  %a = freeze i8 %x
  %b = freeze i8 %x
  %s = sub i8 %a, %b
  ret i8 %s
}|}
        in
        Alcotest.(check int) "both freezes kept" 2 (Func.num_freeze fn));
  ]

let loop_pass_tests =
  [ Alcotest.test_case "licm hoists invariant arithmetic" `Quick (fun () ->
        let fn =
          opt_with Licm.pass Pass.prototype
            {|define i8 @f(i8 %x, i8 %n) {
entry:
  br label %head
head:
  %i = phi i8 [ 0, %entry ], [ %i1, %body ]
  %c = icmp slt i8 %i, %n
  br i1 %c, label %body, label %exit
body:
  %inv = add nsw i8 %x, 1
  call void @use(i8 %inv)
  %i1 = add nsw i8 %i, 1
  br label %head
exit:
  ret i8 0
}|}
        in
        let entry = Func.entry fn in
        Alcotest.(check bool) "add hoisted to preheader" true
          (List.exists
             (fun n -> match n.Instr.ins with Instr.Binop (Instr.Add, _, _, Instr.Var "x", _) -> true | _ -> false)
             entry.Func.insns));
    Alcotest.test_case "licm never hoists division with unknown divisor" `Quick (fun () ->
        let src =
          {|define i8 @f(i8 %k, i8 %n) {
entry:
  br label %head
head:
  %i = phi i8 [ 0, %entry ], [ %i1, %body ]
  %c = icmp slt i8 %i, %n
  br i1 %c, label %body, label %exit
body:
  %d = udiv i8 1, %k
  call void @use(i8 %d)
  %i1 = add nsw i8 %i, 1
  br label %head
exit:
  ret i8 0
}|}
        in
        let fn = opt_with Licm.pass Pass.prototype src in
        let entry = Func.entry fn in
        Alcotest.(check bool) "div not hoisted" false
          (List.exists
             (fun n -> match n.Instr.ins with Instr.Binop (Instr.UDiv, _, _, _, _) -> true | _ -> false)
             entry.Func.insns));
    Alcotest.test_case "unswitching inserts freeze in prototype only" `Quick (fun () ->
        let src =
          {|define void @f(i8 %n, i1 %c2) {
entry:
  br label %head
head:
  %i = phi i8 [ 0, %entry ], [ %i1, %latch ]
  %c = icmp slt i8 %i, %n
  br i1 %c, label %body, label %exit
body:
  br i1 %c2, label %t, label %e2
t:
  call void @foo(i8 %i)
  br label %latch
e2:
  call void @bar(i8 %i)
  br label %latch
latch:
  %i1 = add nsw i8 %i, 1
  br label %head
exit:
  ret void
}|}
        in
        let proto = opt_with Loop_unswitch.pass Pass.prototype src in
        Alcotest.(check int) "freeze added" 1 (Func.num_freeze proto);
        Alcotest.(check bool) "loop duplicated" true
          (List.length proto.Func.blocks > 8);
        let legacy = opt_with Loop_unswitch.pass Pass.legacy src in
        Alcotest.(check int) "legacy hoists raw condition" 0 (Func.num_freeze legacy));
    Alcotest.test_case "indvar widening removes the sext (Figure 3)" `Quick (fun () ->
        let src =
          {|define i64 @f(i32 %n, i64 %acc) {
entry:
  br label %head
head:
  %i = phi i32 [ 0, %entry ], [ %i1, %body ]
  %a = phi i64 [ %acc, %entry ], [ %a1, %body ]
  %c = icmp slt i32 %i, %n
  br i1 %c, label %body, label %exit
body:
  %iext = sext i32 %i to i64
  %a1 = add i64 %a, %iext
  %i1 = add nsw i32 %i, 1
  br label %head
exit:
  ret i64 %a
}|}
        in
        let fn = opt_with Indvar_widen.pass Pass.prototype src in
        let body = Func.find_block_exn fn "body" in
        Alcotest.(check bool) "no sext in loop body" false
          (List.exists
             (fun n -> match n.Instr.ins with Instr.Conv (Instr.Sext, _, _, _) -> true | _ -> false)
             body.Func.insns);
        (* and it still computes the same thing *)
        let r0 = Interp.run ~module_:{ Func.funcs = [ parse src ] } (parse src)
            [ Value.of_int ~width:32 10; Value.of_int ~width:64 5 ] in
        let r1 = Interp.run ~module_:{ Func.funcs = [ fn ] } fn
            [ Value.of_int ~width:32 10; Value.of_int ~width:64 5 ] in
        Alcotest.(check string) "same result"
          (Interp.outcome_to_string r0.Interp.outcome)
          (Interp.outcome_to_string r1.Interp.outcome));
    Alcotest.test_case "reassociate merges constants and drops nsw" `Quick (fun () ->
        let fn =
          opt_with Reassociate.pass Pass.prototype
            {|define i8 @f(i8 %x) {
e:
  %a = add nsw i8 %x, 3
  %b = add nsw i8 %a, 4
  ret i8 %b
}|}
        in
        Alcotest.(check bool) "x + 7 without nsw" true
          (has_insn fn (function
            | Instr.Binop (Instr.Add, attrs, _, _, Instr.Const (Constant.Int bv)) ->
              Ub_support.Bitvec.to_uint_exn bv = 7 && not attrs.Instr.nsw
            | _ -> false)));
  ]

(* end-to-end: the O2 prototype pipeline preserves behaviour on the spec
   suite (interpreter-checked) and never emits invalid IR *)
let pipeline_tests =
  [ Alcotest.test_case "O2 preserves the spec suite results" `Slow (fun () ->
        List.iter
          (fun (bench : Ub_core.Spec_suite.bench) ->
            let m = Ub_minic.Lower.compile ~cfg:Ub_minic.Lower.clang_fixed bench.Ub_core.Spec_suite.source in
            let o = Pipeline.run_o2 Pass.prototype m in
            let fn0 = Func.find_func_exn m bench.entry in
            let fn1 = Func.find_func_exn o bench.entry in
            let r0 = Interp.run ~fuel:3_000_000 ~module_:m fn0 [] in
            let r1 = Interp.run ~fuel:3_000_000 ~module_:o fn1 [] in
            Alcotest.(check string)
              (bench.name ^ " result preserved")
              (Interp.outcome_to_string r0.Interp.outcome)
              (Interp.outcome_to_string r1.Interp.outcome))
          Ub_core.Spec_suite.all);
    Alcotest.test_case "every pass leaves the corpus valid" `Slow (fun () ->
        let corpus = Ub_fuzz.Gen.random_corpus ~seed:99 ~size:30 in
        List.iter
          (fun fn ->
            List.iter
              (fun (p : Pass.t) ->
                let fn' = p.Pass.run Pass.prototype fn in
                match Validate.check_func fn' with
                | [] -> ()
                | errs ->
                  Alcotest.failf "pass %s broke %s: %s" p.Pass.name fn.Func.name
                    (String.concat "; " errs))
              Pipeline.o2_function_passes)
          corpus);
  ]

(* translation validation: the fuzz passes are sound under the proposed
   semantics on the opt-fuzz space; the legacy InstCombine is not *)
let validation_tests =
  [ Alcotest.test_case "prototype InstCombine validates on opt-fuzz slice" `Slow (fun () ->
        let params =
          { Ub_fuzz.Gen.default_params with Ub_fuzz.Gen.n_insns = 2; include_poison = true }
        in
        let checked = ref 0 in
        let _ =
          Ub_fuzz.Gen.enumerate ~limit:800 params (fun fn ->
              let fn' = Instcombine.pass.Pass.run Pass.prototype fn in
              if fn' <> fn then begin
                incr checked;
                match Ub_refine.Checker.check Mode.proposed ~src:fn ~tgt:fn' with
                | Ub_refine.Checker.Counterexample { args; _ } ->
                  Alcotest.failf "unsound rewrite on %s (args %s):\n%s->\n%s"
                    (Printer.func_to_string fn)
                    (String.concat "," (List.map Value.to_string args))
                    (Printer.func_to_string fn) (Printer.func_to_string fn')
                | _ -> ()
              end)
        in
        Alcotest.(check bool) "some rewrites were exercised" true (!checked > 10));
    Alcotest.test_case "legacy select->or rewrite is caught" `Quick (fun () ->
        let src =
          parse
            {|define i1 @f(i1 %c, i1 %x) {
e:
  %r = select i1 %c, i1 true, i1 %x
  ret i1 %r
}|}
        in
        let tgt = Instcombine.pass.Pass.run Pass.legacy src in
        match Ub_refine.Checker.check Mode.proposed ~src ~tgt with
        | Ub_refine.Checker.Counterexample _ -> ()
        | v ->
          Alcotest.failf "legacy rewrite not caught: %s" (Ub_refine.Checker.verdict_to_string v));
  ]

let () =
  Alcotest.run "opt"
    [ ("instcombine", instcombine_tests);
      ("fold-sccp", fold_and_sccp_tests);
      ("cfg-passes", cfg_pass_tests);
      ("loop-passes", loop_pass_tests);
      ("pipeline", pipeline_tests);
      ("validation", validation_tests);
    ]
