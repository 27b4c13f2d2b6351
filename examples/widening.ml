(* Figure 3: induction-variable widening.  The sext inside the loop costs
   one instruction per iteration; widening the IV to 64 bits removes it.
   The transformation is justified ONLY because nsw overflow is poison.

   Run with:  dune exec examples/widening.exe *)

open Ub_ir
open Ub_sem

let src =
  Parser.parse_func_string
    {|define i64 @store_loop(i32 %n, i64 %acc) {
entry:
  br label %head
head:
  %i = phi i32 [ 0, %entry ], [ %i1, %body ]
  %a = phi i64 [ %acc, %entry ], [ %a1, %body ]
  %c = icmp sle i32 %i, %n
  br i1 %c, label %body, label %exit
body:
  %iext = sext i32 %i to i64
  %a1 = add i64 %a, %iext
  %i1 = add nsw i32 %i, 1
  br label %head
exit:
  ret i64 %a
}|}

let () =
  print_endline "=== before widening ===";
  print_string (Printer.func_to_string src);
  let widened = Ub_opt.Indvar_widen.pass.Ub_opt.Pass.run Ub_opt.Pass.prototype src in
  let widened = Ub_opt.Dce.pass.Ub_opt.Pass.run Ub_opt.Pass.prototype widened in
  print_endline "\n=== after widening (no sext in the loop body) ===";
  print_string (Printer.func_to_string widened);
  (* same behaviour *)
  let run fn =
    Interp.outcome_to_string
      (Interp.run fn [ Value.of_int ~width:32 100; Value.of_int ~width:64 0 ]).Interp.outcome
  in
  Printf.printf "\nsum 0..100: before = %s, after = %s\n" (run src) (run widened);
  (* cost: simulated cycles per machine *)
  let cycles fn =
    let c = Ub_backend.Compile.compile_func fn in
    let counts, _ =
      Interp.profile ~module_:{ Func.funcs = [ fn ] } fn
        [ Value.of_int ~width:32 100; Value.of_int ~width:64 0 ]
    in
    Ub_backend.Compile.simulate_cycles Ub_backend.Target.machine1 c
      ~profile:(List.map (fun ((_, l), n) -> (l, n)) counts)
  in
  let before = cycles src and after = cycles widened in
  Printf.printf "simulated cycles: %.0f -> %.0f  (%.1f%% faster; the paper reports up to 39%%)\n"
    before after
    ((before -. after) /. before *. 100.0);
  (* soundness: justified by nsw=poison, NOT by wrapping add *)
  let narrow_nsw =
    Parser.parse_func_string
      {|define i4 @f(i2 %i) {
e:
  %i1 = add nsw i2 %i, 1
  %w = sext i2 %i1 to i4
  ret i4 %w
}|}
  in
  let narrow_widened =
    Parser.parse_func_string
      {|define i4 @f(i2 %i) {
e:
  %iw = sext i2 %i to i4
  %w = add nsw i4 %iw, 1
  ret i4 %w
}|}
  in
  Printf.printf "\nchecker, nsw IV:      %s\n"
    (Ub_refine.Checker.verdict_to_string
       (Ub_refine.Checker.check Mode.proposed ~src:narrow_nsw ~tgt:narrow_widened));
  let narrow_wrap =
    Parser.parse_func_string
      {|define i4 @f(i2 %i) {
e:
  %i1 = add i2 %i, 1
  %w = sext i2 %i1 to i4
  ret i4 %w
}|}
  in
  Printf.printf "checker, wrapping IV: %s\n"
    (Ub_refine.Checker.verdict_to_string
       (Ub_refine.Checker.check Mode.proposed ~src:narrow_wrap ~tgt:narrow_widened))
