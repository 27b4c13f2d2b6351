(* The counterexample shrinking engine: seeded known-bad transform
   pairs buried in noise must reduce to tiny witnesses; every candidate
   the oracle sees must be valid SSA; reduction is deterministic; and a
   minimized counterexample re-checks to the same verdict as its
   unshrunk original in all five semantics modes. *)

open Ub_ir
open Ub_sem

let f = Parser.parse_func_string

(* ------------------------------------------------------------------ *)
(* Seeded pairs: a Section 3 core bug inside a pile of noise           *)
(* ------------------------------------------------------------------ *)

(* select c, true, x -> or c, x (Section 3.4), with an i1 noise chain
   over %c mixed into the return.  At the witness input (c=true,
   x=poison) the chain evaluates to false, so the or-mix preserves the
   core's divergence. *)
let select_noise_src =
  f
    {|define i1 @f(i1 %c, i1 %x) {
entry:
  %n0 = xor i1 %c, true
  %n1 = and i1 %n0, %c
  %n2 = or i1 %n1, %c
  %n3 = xor i1 %n2, %n0
  %n4 = and i1 %n3, %n1
  %n5 = or i1 %n4, %n2
  %n6 = xor i1 %n5, %n3
  %n7 = and i1 %n6, %n4
  %n8 = or i1 %n7, %n5
  %n9 = xor i1 %n8, %n8
  %r = select i1 %c, i1 true, i1 %x
  %o = or i1 %n9, %r
  ret i1 %o
}|}

let select_noise_tgt =
  f
    {|define i1 @f(i1 %c, i1 %x) {
entry:
  %n0 = xor i1 %c, true
  %n1 = and i1 %n0, %c
  %n2 = or i1 %n1, %c
  %n3 = xor i1 %n2, %n0
  %n4 = and i1 %n3, %n1
  %n5 = or i1 %n4, %n2
  %n6 = xor i1 %n5, %n3
  %n7 = and i1 %n6, %n4
  %n8 = or i1 %n7, %n5
  %n9 = xor i1 %n8, %n8
  %r = or i1 %c, %x
  %o = or i1 %n9, %r
  ret i1 %o
}|}

(* mul x,2 -> add x,x (Section 3.1), with an i2 noise chain over both
   arguments mixed into the return. *)
let mul2_noise_src =
  f
    {|define i2 @f(i2 %a, i2 %b) {
entry:
  %n0 = xor i2 %a, %b
  %n1 = add i2 %n0, 1
  %n2 = and i2 %n1, %b
  %n3 = add i2 %n2, %n0
  %n4 = xor i2 %n3, 1
  %n5 = add i2 %n4, %n2
  %n6 = and i2 %n5, %n1
  %n7 = add i2 %n6, %n3
  %n8 = xor i2 %n7, %n5
  %n9 = add i2 %n8, 1
  %m = mul i2 %a, 2
  %r = add i2 %m, %n9
  ret i2 %r
}|}

let mul2_noise_tgt =
  f
    {|define i2 @f(i2 %a, i2 %b) {
entry:
  %n0 = xor i2 %a, %b
  %n1 = add i2 %n0, 1
  %n2 = and i2 %n1, %b
  %n3 = add i2 %n2, %n0
  %n4 = xor i2 %n3, 1
  %n5 = add i2 %n4, %n2
  %n6 = and i2 %n5, %n1
  %n7 = add i2 %n6, %n3
  %n8 = xor i2 %n7, %n5
  %n9 = add i2 %n8, 1
  %m = add i2 %a, %a
  %r = add i2 %m, %n9
  ret i2 %r
}|}

let verdict_class = function
  | Ub_refine.Checker.Refines -> "refines"
  | Ub_refine.Checker.Counterexample _ -> "counterexample"
  | Ub_refine.Checker.Unknown _ -> "unknown"

(* Run a reduction and return it, asserting the basic contract. *)
let reduce_checked ?preserve mode ~src ~tgt =
  match Ub_refine.Reduce.minimize_cex ?preserve mode ~src ~tgt with
  | None -> Alcotest.failf "seeded pair is not a counterexample under %s" mode.Mode.name
  | Some r -> r

let shrink_tests =
  [ Alcotest.test_case "select->or noise pair reduces to a tiny witness" `Quick (fun () ->
        let r =
          reduce_checked Mode.old_simplifycfg ~src:select_noise_src ~tgt:select_noise_tgt
        in
        let orig = Func.num_insns select_noise_src in
        let final = Func.num_insns r.Ub_refine.Reduce.red_src in
        Alcotest.(check bool) "witness <= 5 instructions" true (final <= 5);
        Alcotest.(check bool)
          (Printf.sprintf "witness (%d) <= 20%% of original (%d)" final orig)
          true
          (float_of_int final <= 0.2 *. float_of_int orig);
        (* the minimized pair still fails the original oracle *)
        Alcotest.(check string)
          "minimized pair is still a counterexample" "counterexample"
          (verdict_class r.Ub_refine.Reduce.verdict));
    Alcotest.test_case "mul2->add noise pair reduces to a tiny witness" `Quick (fun () ->
        let r = reduce_checked Mode.old_unswitch ~src:mul2_noise_src ~tgt:mul2_noise_tgt in
        let orig = Func.num_insns mul2_noise_src in
        let final = Func.num_insns r.Ub_refine.Reduce.red_src in
        Alcotest.(check bool) "witness <= 5 instructions" true (final <= 5);
        Alcotest.(check bool)
          (Printf.sprintf "witness (%d) <= 20%% of original (%d)" final orig)
          true
          (float_of_int final <= 0.2 *. float_of_int orig);
        Alcotest.(check string)
          "minimized pair is still a counterexample" "counterexample"
          (verdict_class r.Ub_refine.Reduce.verdict));
    Alcotest.test_case "every candidate the oracle sees is valid SSA" `Quick (fun () ->
        let invalid = ref 0 and seen = ref 0 in
        let oracle s t =
          incr seen;
          if Validate.check_func s <> [] || Validate.check_func t <> [] then incr invalid;
          Ub_refine.Reduce.not_refined Mode.old_unswitch ~src:s ~tgt:t
        in
        let _ =
          Ub_shrink.Reduce.minimize_pair ~oracle (mul2_noise_src, mul2_noise_tgt)
        in
        Alcotest.(check bool) "oracle was consulted" true (!seen > 0);
        Alcotest.(check int) "no invalid candidate reached the oracle" 0 !invalid);
    Alcotest.test_case "reduction is deterministic" `Quick (fun () ->
        let run () =
          let r =
            reduce_checked Mode.old_simplifycfg ~src:select_noise_src
              ~tgt:select_noise_tgt
          in
          Printer.func_to_string r.Ub_refine.Reduce.red_src
          ^ Printer.func_to_string r.Ub_refine.Reduce.red_tgt
        in
        Alcotest.(check string) "two runs agree" (run ()) (run ()));
    Alcotest.test_case "max_oracle_calls bounds the oracle calls" `Quick (fun () ->
        let calls = ref 0 in
        let oracle _ =
          incr calls;
          false
        in
        let r, stats = Ub_shrink.Reduce.minimize ~max_oracle_calls:5 ~oracle mul2_noise_src in
        Alcotest.(check int) "oracle called" 5 !calls;
        Alcotest.(check int) "stats count" 5 stats.Ub_shrink.Reduce.oracle_calls;
        Alcotest.(check string) "input unchanged" (Printer.func_to_string mul2_noise_src)
          (Printer.func_to_string r));
  ]

let oracle_consistency =
  Alcotest.test_case "minimized pair re-checks like the original in all 5 modes" `Quick
    (fun () ->
      let r =
        reduce_checked ~preserve:Mode.all Mode.old_unswitch ~src:mul2_noise_src
          ~tgt:mul2_noise_tgt
      in
      List.iter
        (fun (mode : Mode.t) ->
          let orig =
            Ub_refine.Checker.check mode ~src:mul2_noise_src ~tgt:mul2_noise_tgt
          in
          let red =
            Ub_refine.Checker.check mode ~src:r.Ub_refine.Reduce.red_src
              ~tgt:r.Ub_refine.Reduce.red_tgt
          in
          Alcotest.(check string)
            (Printf.sprintf "verdict class under %s" mode.Mode.name)
            (verdict_class orig) (verdict_class red))
        Mode.all)

(* The reducer must refuse to "reduce" a sound pair: minimize_cex is
   None when there is nothing to witness. *)
let nothing_to_reduce =
  Alcotest.test_case "sound pair yields no reduction" `Quick (fun () ->
      match
        Ub_refine.Reduce.minimize_cex Mode.proposed ~src:mul2_noise_src
          ~tgt:mul2_noise_tgt
      with
      | None -> ()
      | Some _ -> Alcotest.fail "reduced a pair that refines")

let () =
  Alcotest.run "shrink"
    [ ("reduce", shrink_tests);
      ("oracle-consistency", [ oracle_consistency; nothing_to_reduce ]);
    ]
