(* The refinement checker: known-verdict pairs from the paper, agreement
   between the SAT path and the enumeration path, and self-refinement. *)

open Ub_ir
open Ub_sem
open Ub_refine

let f = Parser.parse_func_string

let expect_refines name mode src tgt =
  Alcotest.test_case name `Quick (fun () ->
      match Checker.check mode ~src:(f src) ~tgt:(f tgt) with
      | Checker.Refines -> ()
      | v -> Alcotest.failf "%s: expected refines, got %s" name (Checker.verdict_to_string v))

let expect_cex name mode src tgt =
  Alcotest.test_case name `Quick (fun () ->
      match Checker.check mode ~src:(f src) ~tgt:(f tgt) with
      | Checker.Counterexample _ -> ()
      | v -> Alcotest.failf "%s: expected cex, got %s" name (Checker.verdict_to_string v))

let id2 = {|define i2 @f(i2 %x) {
e:
  ret i2 %x
}|}

(* the identity and a constant over (i8 %x, i32 %y) *)
let id8_2 = {|define i8 @f(i8 %x, i32 %y) {
e:
  ret i8 %x
}|}

let zero8_2 = {|define i8 @f(i8 %x, i32 %y) {
e:
  ret i8 0
}|}

let known_pairs =
  [ expect_refines "identity refines itself" Mode.proposed id2 id2;
    expect_refines "x+0 -> x" Mode.proposed
      {|define i2 @f(i2 %x) {
e:
  %y = add i2 %x, 0
  ret i2 %y
}|}
      id2;
    expect_cex "x -> x+1 is not refinement" Mode.proposed id2
      {|define i2 @f(i2 %x) {
e:
  %y = add i2 %x, 1
  ret i2 %y
}|};
    expect_refines "anything refines UB source" Mode.proposed
      {|define i2 @f(i2 %x) {
e:
  %y = udiv i2 1, 0
  ret i2 %y
}|}
      {|define i2 @f(i2 %x) {
e:
  ret i2 3
}|};
    expect_cex "introducing UB is not refinement" Mode.proposed
      {|define i2 @f(i2 %x) {
e:
  ret i2 0
}|}
      {|define i2 @f(i2 %x) {
e:
  %y = udiv i2 1, 0
  ret i2 0
}|};
    expect_refines "poison source covers any value" Mode.proposed
      {|define i2 @f(i2 %x) {
e:
  %y = add nsw i2 2, 2
  ret i2 %y
}|}
      {|define i2 @f(i2 %x) {
e:
  ret i2 1
}|};
    expect_cex "concrete does not cover poison" Mode.proposed
      {|define i2 @f(i2 %x) {
e:
  ret i2 1
}|}
      {|define i2 @f(i2 %x) {
e:
  %y = add nsw i2 2, 2
  ret i2 %y
}|};
    expect_refines "freeze removal when input can't be poison" Mode.proposed
      {|define i2 @f(i2 %x) {
e:
  %f = freeze i2 %x
  %a = and i2 %f, 1
  %y = freeze i2 %a
  ret i2 %y
}|}
      {|define i2 @f(i2 %x) {
e:
  %f = freeze i2 %x
  %a = and i2 %f, 1
  ret i2 %a
}|};
    expect_cex "freeze removal is wrong when input may be poison" Mode.proposed
      {|define i2 @f(i2 %x) {
e:
  %a = and i2 %x, 1
  %y = freeze i2 %a
  ret i2 %y
}|}
      {|define i2 @f(i2 %x) {
e:
  %a = and i2 %x, 1
  ret i2 %a
}|};
    (* and/or are strict in poison, unlike undef *)
    expect_cex "0 does not cover and x,0 (x may be poison)" Mode.proposed
      {|define i2 @f(i2 %x) {
e:
  ret i2 0
}|}
      {|define i2 @f(i2 %x) {
e:
  %y = and i2 %x, 0
  ret i2 %y
}|};
    expect_refines "and x,0 -> 0 forward direction" Mode.proposed
      {|define i2 @f(i2 %x) {
e:
  %y = and i2 %x, 0
  ret i2 %y
}|}
      {|define i2 @f(i2 %x) {
e:
  ret i2 0
}|};
    (* undef-specific: x -> undef is legal (undef covers), undef -> x not *)
    expect_refines "freeze poison refines poison source" Mode.proposed
      {|define i2 @f() {
e:
  ret i2 poison
}|}
      {|define i2 @f() {
e:
  %y = freeze i2 poison
  ret i2 %y
}|};
    expect_cex "unfreezing is not refinement" Mode.proposed
      {|define i2 @f(i2 %x) {
e:
  %y = freeze i2 %x
  ret i2 %y
}|}
      id2;
    (* control flow *)
    expect_refines "branch simplification on constant" Mode.proposed
      {|define i2 @f(i2 %x) {
e:
  br i1 true, label %t, label %u
t:
  ret i2 %x
u:
  ret i2 0
}|}
      id2;
    expect_refines "dead arm removal keeps UB profile" Mode.old_gvn
      {|define i2 @f(i1 %c, i2 %x) {
e:
  br i1 %c, label %t, label %u
t:
  ret i2 %x
u:
  ret i2 %x
}|}
      {|define i2 @f(i1 %c, i2 %x) {
e:
  br i1 %c, label %t, label %u
t:
  ret i2 %x
u:
  ret i2 %x
}|};
    expect_cex "dropping a branch drops its UB (old-gvn, reversed)" Mode.old_gvn
      {|define i2 @f(i1 %c, i2 %x) {
e:
  ret i2 %x
}|}
      {|define i2 @f(i1 %c, i2 %x) {
e:
  br i1 %c, label %t, label %t
t:
  ret i2 %x
}|};
  ]

(* agreement between the SAT checker and the enumeration checker over the
   opt-fuzz space with random pass-like mutations *)
let mutate (rng : Ub_support.Prng.t) (fn : Func.t) : Func.t =
  (* a crude random rewrite: replace a random instruction's result with
     one of its operands, or drop an attribute, or swap operands *)
  let blocks =
    List.map
      (fun (b : Func.block) ->
        { b with
          Func.insns =
            List.map
              (fun n ->
                if Ub_support.Prng.chance rng ~num:1 ~den:3 then
                  match n.Instr.ins with
                  | Instr.Binop (op, attrs, ty, a, b') when Ub_support.Prng.bool rng ->
                    { n with Instr.ins = Instr.Binop (op, attrs, ty, b', a) }
                  | Instr.Binop (op, _, ty, a, b') ->
                    { n with Instr.ins = Instr.Binop (op, Instr.no_attrs, ty, a, b') }
                  | ins -> { n with Instr.ins }
                else n)
              b.Func.insns;
        })
      fn.Func.blocks
  in
  { fn with Func.blocks }

let checkers_agree =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"SAT and enumeration checkers agree" ~count:60
       QCheck2.Gen.(int_range 0 100_000)
       (fun seed ->
         let rng = Ub_support.Prng.create ~seed in
         (* build a tiny random straight-line function over i2 *)
         let params = { Ub_fuzz.Gen.default_params with Ub_fuzz.Gen.n_insns = 2 } in
         let fns = ref [] in
         let _ = Ub_fuzz.Gen.enumerate ~limit:400 params (fun f -> fns := f :: !fns) in
         let fns = Array.of_list !fns in
         let src = fns.(Ub_support.Prng.int rng (Array.length fns)) in
         let tgt = mutate rng src in
         List.for_all
           (fun mode ->
             let sat = Checker.check_sat mode ~src ~tgt in
             match sat with
             | Checker.Unknown _ -> true
             | _ -> (
               match
                 Enum_check.check ~mode ~src ~tgt ()
               with
               | Enum_check.Refines -> sat = Checker.Refines
               | Enum_check.Counterexample _ -> (
                 match sat with Checker.Counterexample _ -> true | _ -> false)
               | Enum_check.Unknown _ -> true))
           [ Mode.proposed; Mode.old_unswitch; Mode.old_gvn ]))

(* ------------------------------------------------------------------ *)
(* Verdict-cache keying (ISSUE 4 satellite: budget collision)          *)
(* ------------------------------------------------------------------ *)

(* A fresh journal and a fresh Obs registry, so [Verdict_cache.lookups]
   and the verdict_cache.store counter count this test's lookups alone. *)
let with_tmp_cache k =
  let dir = Filename.temp_file "ub_refine_cache" "" in
  Sys.remove dir;
  Ub_obs.Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Ub_obs.Obs.reset ();
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
    (fun () -> k (Ub_exec.Cache.open_journal dir))

let cache_hits () = fst (Verdict_cache.lookups ())

let cache_tests =
  [ Alcotest.test_case "budget-limited verdicts never alias full-budget ones" `Quick
      (fun () ->
        (* the shrink oracles run with reduced SAT budgets through the
           same persistent cache as full-budget sweeps: the key must
           keep the two populations apart *)
        with_tmp_cache (fun c ->
            let src = f id2 and tgt = f id2 in
            let v1 =
              Reduce.check_cached ~cache:c ~max_universal_bits:Reduce.reduce_universal_bits
                ~max_conflicts:Reduce.reduce_conflicts Mode.proposed ~src ~tgt
            in
            let v2 = Reduce.check_cached ~cache:c Mode.proposed ~src ~tgt in
            Alcotest.(check bool) "both calls refine" true
              (v1 = Checker.Refines && v2 = Checker.Refines);
            Alcotest.(check int) "full-budget call misses the small-budget entry" 0
              (cache_hits ());
            Alcotest.(check int) "two distinct entries stored" 2
              (Ub_obs.Obs.counter_value "verdict_cache.store");
            (* same budget twice is still a hit *)
            let v3 =
              Reduce.check_cached ~cache:c ~max_universal_bits:Reduce.reduce_universal_bits
                ~max_conflicts:Reduce.reduce_conflicts Mode.proposed ~src ~tgt
            in
            Alcotest.(check bool) "replay hits" true
              (v3 = Checker.Refines && cache_hits () = 1)));
    Alcotest.test_case "kind tags carry the v3 bump" `Quick (fun () ->
        (* stale entries must be unreachable: the kind strings are part
           of the hashed key, so the bump is the invalidation.  The SAT
           budget now bounds the support, so the budget-keyed combined
           kind is v3; enumeration ignores the budget and stays v2 *)
        let ends_in suffix tag =
          Alcotest.(check bool)
            (Printf.sprintf "%s ends in %s" tag suffix)
            true
            (String.ends_with ~suffix tag)
        in
        ends_in "-v3" Verdict_cache.combined_kind;
        ends_in "-v2" Verdict_cache.enum_kind);
    Alcotest.test_case "a combined-v2 entry is not served to a v3 lookup" `Quick (fun () ->
        with_tmp_cache (fun c ->
            let src = f id2 and tgt = f id2 in
            (* a v2 entry for the same pair and budget, deliberately wrong
               so that serving it would show *)
            let stale =
              Verdict_cache.key ~max_universal_bits:Reduce.reduce_universal_bits
                ~max_conflicts:Reduce.reduce_conflicts ~mode:Mode.proposed ~kind:"combined-v2"
                ~src ~tgt ()
            in
            Verdict_cache.store c stale
              (Checker.Counterexample { args = []; witness = "stale v2 entry" });
            let v =
              Reduce.check_cached ~cache:c ~max_universal_bits:Reduce.reduce_universal_bits
                ~max_conflicts:Reduce.reduce_conflicts Mode.proposed ~src ~tgt
            in
            Alcotest.(check bool) "the v3 lookup refines" true (v = Checker.Refines);
            Alcotest.(check int) "the v2 entry is never hit" 0 (cache_hits ())));
  ]

(* ------------------------------------------------------------------ *)
(* Universal expansion                                                 *)
(* ------------------------------------------------------------------ *)

(* Bits of universal choice in [src]: the checker's counting pass. *)
let choice_bits (mode : Mode.t) (src : Func.t) : int =
  let ctx = Ub_smt.Circuit.create_ctx () in
  let args =
    List.map
      (fun (v, ty) ->
        let w = Encode.int_width ty in
        ( v,
          { Encode.v = Ub_smt.Bvterm.fresh ctx ~width:w;
            p = Ub_smt.Circuit.fresh ctx;
            u = (if mode.Mode.undef_enabled then Ub_smt.Circuit.fresh ctx else Ub_smt.Circuit.bfalse);
          } ))
      src.Func.args
  in
  let trace = ref [] in
  ignore (Encode.encode ctx mode (Checker.counting_choices ctx trace) ~args src);
  List.fold_left (fun n -> function Some w -> n + w | None -> n) 0 !trace

(* Hunt-generator programs (undef operands, a CFG diamond, width 2)
   against their legacy -O2 output, under the two old modes, kept when
   the source has 1-12 bits of universal choice: the checker's verdict
   class must match enumeration's, and every counterexample must replay
   through enumeration on its own arguments. *)
let expansion_pairs =
  lazy
    (let params = { Ub_fuzz.Gen.default_hunt with Ub_fuzz.Gen.h_undef = true; h_cfg = true } in
     let pairs = ref [] and seed = ref 0 in
     while List.length !pairs < 48 && !seed < 2_000 do
       let src =
         Ub_fuzz.Gen.hunt_func (Ub_support.Prng.create ~seed:!seed) ~name:"f" params
       in
       let tgt = Ub_opt.Pipeline.run_o2_func Ub_opt.Pass.legacy src in
       if not (Func.equal src tgt) then
         List.iter
           (fun mode ->
             let bits = try choice_bits mode src with Encode.Unsupported _ -> 0 in
             if bits >= 1 && bits <= 12 then pairs := (mode, src, tgt) :: !pairs)
           [ Mode.old_langref; Mode.old_unswitch ];
       incr seed
     done;
     List.rev !pairs)

let expansion_differential () =
  let pairs = Lazy.force expansion_pairs in
  Alcotest.(check bool) "enough pairs with choice" true (List.length pairs >= 40);
  let cex = ref 0 in
  List.iter
    (fun (mode, src, tgt) ->
      let name = Printf.sprintf "%s %s" mode.Mode.name (Printer.func_to_string src) in
      let v = Checker.check mode ~src ~tgt in
      match (Enum_check.check ~mode ~src ~tgt (), v) with
      | Enum_check.Refines, Checker.Refines | Enum_check.Unknown _, _ -> ()
      | Enum_check.Counterexample _, Checker.Counterexample { args; _ } -> (
        incr cex;
        match Enum_check.check ~mode ~inputs:[ args ] ~src ~tgt () with
        | Enum_check.Counterexample _ -> ()
        | _ -> Alcotest.failf "counterexample does not replay: %s" name)
      | _, v -> Alcotest.failf "verdict class differs (%s): %s" (Checker.verdict_to_string v) name)
    pairs;
  Alcotest.(check bool) "some pairs are refuted" true (!cex > 0)

(* A traced check of an undef pair records every child span of
   [refine.check_sat], and the children fit inside their parent.  The
   target's poison at x = 1 is uncovered under every choice, so no
   cofactor folds to false and all 2^6 assignments (two undef uses
   and the possibly-undef %x) are conjoined. *)
let undef_src =
  {|define i2 @f(i2 %x) {
e:
  %y = add i2 undef, %x
  %z = add i2 %y, undef
  ret i2 %z
}|}

(* The verdict, each span's (count, total ns) and the assignments
   conjoined, from a fresh registry. *)
let check_traced mode src tgt =
  Ub_obs.Obs.reset ();
  Fun.protect ~finally:Ub_obs.Obs.reset @@ fun () ->
  let v = Checker.check_sat mode ~src:(f src) ~tgt:(f tgt) in
  let spans =
    Hashtbl.fold
      (fun n s acc -> (n, (s.Ub_obs.Obs.s_count, s.Ub_obs.Obs.s_total_ns)) :: acc)
      Ub_obs.Obs.spans []
  in
  let span n = Option.value ~default:(0, 0) (List.assoc_opt n spans) in
  (v, span, Ub_obs.Obs.counter_value "refine.expand.assignments")

(* A source with 40 raw bits of freeze choice, of which the refinement
   body reads none ([unused_freeze]) or the 8 of the returned freeze
   ([read_freeze]). *)
let unused_freeze =
  {|define i8 @f(i8 %x, i32 %y) {
e:
  %a = freeze i32 %y
  %b = freeze i8 %x
  ret i8 %x
}|}

let read_freeze =
  {|define i8 @f(i8 %x, i32 %y) {
e:
  %a = freeze i32 %y
  %b = freeze i8 %x
  ret i8 %b
}|}

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let budget_tests =
  [ Alcotest.test_case "choice bits the body ignores cost no budget" `Quick (fun () ->
        let src = f unused_freeze in
        Alcotest.(check int) "raw choice bits" 40 (choice_bits Mode.proposed src);
        let check tgt =
          Checker.check_sat ~max_universal_bits:6 Mode.proposed ~src ~tgt:(f tgt)
        in
        (match check id8_2 with
        | Checker.Refines -> ()
        | v -> Alcotest.failf "expected refines, got %s" (Checker.verdict_to_string v));
        match check zero8_2 with
        | Checker.Counterexample _ -> ()
        | v -> Alcotest.failf "expected a counterexample, got %s" (Checker.verdict_to_string v));
    Alcotest.test_case "a body that reads past the budget is Unknown, naming both counts"
      `Quick (fun () ->
        let src = f read_freeze in
        match Checker.check_sat ~max_universal_bits:6 Mode.proposed ~src ~tgt:(f id8_2) with
        | Checker.Unknown r ->
          List.iter
            (fun sub ->
              Alcotest.(check bool) (Printf.sprintf "%S in %S" sub r) true (contains r sub))
            [ "bits of nondeterministic choice"; "at least 7"; "40 bits"; "max 6" ]
        | v -> Alcotest.failf "expected unknown, got %s" (Checker.verdict_to_string v));
    Alcotest.test_case "the same body fits a budget of its support" `Quick (fun () ->
        match
          Checker.check_sat ~max_universal_bits:8 Mode.proposed ~src:(f read_freeze)
            ~tgt:(f id8_2)
        with
        | Checker.Counterexample _ -> ()
        | v -> Alcotest.failf "expected a counterexample, got %s" (Checker.verdict_to_string v));
    Alcotest.test_case "each hand-off to enumeration is counted by reason" `Quick (fun () ->
        Ub_obs.Obs.reset ();
        Fun.protect ~finally:Ub_obs.Obs.reset @@ fun () ->
        let check ?max_universal_bits src tgt =
          ignore (Checker.check ?max_universal_bits Mode.proposed ~src:(f src) ~tgt:(f tgt))
        in
        check ~max_universal_bits:6 read_freeze id8_2;
        check ~max_universal_bits:6 unused_freeze id8_2;
        check id2 id8_2;
        List.iter
          (fun (reason, n) ->
            Alcotest.(check int) reason n
              (Ub_obs.Obs.counter_value ("refine.fallback." ^ reason)))
          [ ("budget_bits", 1); ("signature", 1); ("conflicts", 0); ("unsupported", 0) ]);
  ]

let expansion_tests =
  [ Alcotest.test_case "child spans of a traced undef check" `Quick (fun () ->
        let v, span, assignments =
          check_traced Mode.old_langref undef_src
            {|define i2 @f(i2 %x) {
e:
  %y = add nsw i2 %x, 1
  ret i2 %y
}|}
        in
        (match v with
        | Checker.Counterexample _ -> ()
        | v -> Alcotest.failf "expected a counterexample, got %s" (Checker.verdict_to_string v));
        let children = [ "refine.count_choices"; "refine.expand"; "smt.solve"; "refine.decode" ] in
        List.iter
          (fun n -> Alcotest.(check int) (n ^ " recorded once") 1 (fst (span n)))
          children;
        let parent = snd (span "refine.check_sat") in
        let sum = List.fold_left (fun acc n -> acc + snd (span n)) 0 children in
        Alcotest.(check bool) "children within the parent" true (sum <= parent);
        Alcotest.(check int) "every assignment conjoined" 64 assignments);
    Alcotest.test_case "expansion stops once the conjunction is false" `Quick (fun () ->
        (* every choice but one leaves the target's 1 uncovered; the
           second assignment in Gray order is that one *)
        let v, _, assignments =
          check_traced Mode.old_langref
            {|define i2 @f(i2 %x) {
e:
  %y = add i2 undef, 0
  ret i2 %y
}|}
            {|define i2 @f(i2 %x) {
e:
  ret i2 1
}|}
        in
        Alcotest.(check bool) "refines" true (v = Checker.Refines);
        Alcotest.(check int) "two of four assignments conjoined" 2 assignments);
    Alcotest.test_case "differential vs enumeration, fresh contexts" `Slow
      expansion_differential;
  ]

(* The `bench solver` corpus against its committed baseline: every
   query's verdict class must match bench/solver_baseline.tsv (name,
   mode and verdict are its first three columns).  Counterexample
   models may differ between solver versions; verdicts may not. *)
let baseline_verdicts () =
  let ic = open_in "../bench/solver_baseline.tsv" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go acc =
    match input_line ic with
    | exception End_of_file -> acc
    | line -> (
      match String.split_on_char '\t' line with
      | name :: mode :: verdict :: _ when line.[0] <> '#' -> go (((name, mode), verdict) :: acc)
      | _ -> go acc)
  in
  go []

let verdict_class = function
  | Checker.Refines -> "refines"
  | Checker.Counterexample _ -> "counterexample"
  | Checker.Unknown _ -> "unknown"

let regression_tests =
  [ Alcotest.test_case "90-query bench corpus keeps its baseline verdicts" `Slow (fun () ->
        let baseline = baseline_verdicts () in
        let corpus = Ub_corpus.corpus () in
        Alcotest.(check int) "every query has a baseline row" (List.length corpus)
          (List.length baseline);
        List.iter
          (fun (q : Ub_corpus.query) ->
            let mode = Option.get (Mode.find q.Ub_corpus.qmode) in
            let got =
              verdict_class
                (Checker.check_sat ~max_conflicts:200_000 mode ~src:q.Ub_corpus.qsrc
                   ~tgt:q.Ub_corpus.qtgt)
            in
            match List.assoc_opt (q.Ub_corpus.qname, q.Ub_corpus.qmode) baseline with
            | Some want when want = got -> ()
            | want ->
              Alcotest.failf "%s [%s]: baseline %s, now %s\n%a\n%a" q.Ub_corpus.qname
                q.Ub_corpus.qmode
                (Option.value ~default:"missing" want)
                got Printer.pp_func q.Ub_corpus.qsrc Printer.pp_func q.Ub_corpus.qtgt)
          corpus);
  ]

(* [Enum_check.input_space] counts the tuples before it builds any: at
   257 values per i8 argument (in the proposed mode), three arguments
   make 17M tuples and four about 4.4e9. *)
let input_space_tests =
  let i8s n =
    f
      (Printf.sprintf "define i8 @f(%s) {\ne:\n  ret i8 %%a0\n}"
         (String.concat ", " (List.init n (Printf.sprintf "i8 %%a%d"))))
  in
  let space ?(max_inputs = 5_000) fn = Enum_check.input_space ~mode:Mode.proposed ~max_inputs fn in
  [ Alcotest.test_case "a 3 x i8 space is refused without being built" `Quick (fun () ->
        let before = Gc.allocated_bytes () in
        let r = space (i8s 3) in
        let allocated = Gc.allocated_bytes () -. before in
        Alcotest.(check bool) "refused" true (r = None);
        if allocated >= 1_048_576.0 then
          Alcotest.failf "allocated %.0f bytes to refuse it" allocated);
    Alcotest.test_case "the bound is inclusive, and tuples keep their order" `Quick (fun () ->
        let n = 257 * 257 in
        (match space ~max_inputs:n (i8s 2) with
        | Some ts ->
          Alcotest.(check int) "every tuple" n (List.length ts);
          Alcotest.(check string) "first argument varies slowest" "0, 1"
            (String.concat ", " (List.map Value.to_string (List.nth ts 1)))
        | None -> Alcotest.fail "a space of exactly max_inputs must be built");
        Alcotest.(check bool) "one over" true (space ~max_inputs:(n - 1) (i8s 2) = None);
        Alcotest.(check bool) "no arguments: one empty tuple" true
          (space ~max_inputs:1 (i8s 0) = Some [ [] ]));
  ]

(* ------------------------------------------------------------------ *)
(* The source-UB short-circuit of Enum_check.check                      *)
(* ------------------------------------------------------------------ *)

(* The enumeration loop as it was before the short-circuit: every
   (tuple, phase) enumerates both sides.  [None] when the input space is
   not enumerable or a side exhausts [max_runs]; otherwise the arguments
   of the first uncovered tuple, if any. *)
let full_loop ~mode ?(fuel = 5_000) ?(max_runs = 50_000) ~src ~tgt () =
  match Enum_check.input_space ~mode ~max_inputs:5_000 src with
  | None -> None
  | Some tuples -> (
    let phases = Enum_check.phases_for ~src ~tgt in
    let sp = Interp.prepare ~mode src and tp = Interp.prepare ~mode tgt in
    try
      Some
        (List.find_map
           (fun args ->
             List.find_map
               (fun phase ->
                 let bs = Interp.Behaviors.enumerate ~fuel ~max_runs ~phase sp args in
                 let bt = Interp.Behaviors.enumerate ~fuel ~max_runs ~phase tp args in
                 if
                   List.exists
                     (fun t -> not (List.exists (fun s -> Enum_check.behavior_covers s t) bs))
                     bt
                 then Some args
                 else None)
               phases)
           tuples)
    with Oracle.Exhausted -> None)

(* UB on x = 0 and on poison (a branch on poison). *)
let ub_at_zero =
  {|define i2 @f(i2 %x) {
e:
  %c = icmp eq i2 %x, 0
  br i1 %c, label %z, label %ok
z:
  unreachable
ok:
  ret i2 %x
}|}

(* On x = 0 it freezes poison three times: 64 runs. *)
let wide_at_zero =
  {|define i2 @f(i2 %x) {
e:
  %c = icmp eq i2 %x, 0
  br i1 %c, label %z, label %ok
z:
  %a = freeze i2 poison
  %b = freeze i2 poison
  %d = freeze i2 poison
  %s = add i2 %a, %b
  %t = add i2 %s, %d
  ret i2 %t
ok:
  ret i2 %x
}|}

let skipped () = Ub_obs.Obs.counter_value "refine.enum_tgt_skipped"

let short_circuit_tests =
  [ Alcotest.test_case "a target too wide only where the source is UB is decided" `Quick
      (fun () ->
        let src = f ub_at_zero and tgt = f wide_at_zero in
        Alcotest.(check bool)
          "the full loop exhausts 32 runs" true
          (full_loop ~mode:Mode.proposed ~max_runs:32 ~src ~tgt () = None);
        let before = skipped () in
        (match Enum_check.check ~mode:Mode.proposed ~max_runs:32 ~src ~tgt () with
        | Enum_check.Refines -> ()
        | v -> Alcotest.failf "expected refines, got %s" (Checker.verdict_to_string v));
        (* x = 0 and x = poison, in the one (infinite) phase *)
        Alcotest.(check int) "target enumerations skipped" 2 (skipped () - before);
        (* swapped, the UB is the target's, and x = 0 refutes *)
        match Enum_check.check ~mode:Mode.proposed ~src:tgt ~tgt:src () with
        | Enum_check.Counterexample { args = [ x ]; _ } ->
          Alcotest.(check string) "at x = 0" "0" (Value.to_string x)
        | v -> Alcotest.failf "expected a counterexample, got %s" (Checker.verdict_to_string v));
    Alcotest.test_case "a source timeout does not skip the target" `Quick (fun () ->
        let spins = f {|define i2 @f(i2 %x) {
e:
  br label %l
l:
  br label %l
}|} in
        match Enum_check.check ~mode:Mode.proposed ~fuel:100 ~src:spins ~tgt:(f id2) () with
        | Enum_check.Counterexample _ -> ()
        | v -> Alcotest.failf "expected a counterexample, got %s" (Checker.verdict_to_string v));
    Alcotest.test_case "skips are reported next to interp_runs" `Quick (fun () ->
        Ub_obs.Obs.reset ();
        Fun.protect ~finally:Ub_obs.Obs.reset @@ fun () ->
        ignore (Enum_check.check ~mode:Mode.proposed ~src:(f ub_at_zero) ~tgt:(f id2) ());
        let derived = Option.get (Ub_obs.Json.member "derived" (Ub_obs.Obs.report ())) in
        let field k = Option.bind (Ub_obs.Json.member k derived) Ub_obs.Json.to_int in
        Alcotest.(check (option int)) "enum_tgt_skipped" (Some 2) (field "enum_tgt_skipped");
        (* five tuples of source, three of target *)
        Alcotest.(check (option int)) "interp_runs" (Some 8) (field "interp_runs"));
    Alcotest.test_case "the short-circuit keeps the full loop's verdict" `Quick (fun () ->
        (* 200 generated pairs: a hunt-shaped source, and its fuzz-pipeline
           output with a random mutation; pairs the full loop cannot
           decide within 2,000 runs are left out *)
        let refines = ref 0 and cexs = ref 0 and undecided = ref 0 in
        let before = skipped () in
        for seed = 1 to 200 do
          let rng = Ub_support.Prng.create ~seed in
          let d = Ub_fuzz.Gen.default_hunt in
          let shape =
            Ub_support.Prng.choose_list rng
              [ d; { d with h_cfg = true }; { d with h_mem = true }; { d with h_undef = true };
                { d with h_cfg = true; h_undef = true; h_mem = true } ]
          in
          let src = Ub_fuzz.Gen.hunt_func rng ~name:"f" shape in
          let cfg = Ub_support.Prng.choose_list rng [ Ub_opt.Pass.legacy; Ub_opt.Pass.prototype ] in
          let tgt = mutate rng (Ub_opt.Pass.run_pipeline cfg Ub_opt.Pipeline.fuzz_passes src) in
          let mode = Ub_support.Prng.choose_list rng Mode.all in
          let same_args a b = List.length a = List.length b && List.for_all2 Value.equal a b in
          match full_loop ~mode ~max_runs:2_000 ~src ~tgt () with
          | None -> incr undecided
          | Some reference -> (
            match (reference, Enum_check.check ~mode ~max_runs:2_000 ~src ~tgt ()) with
            | None, Enum_check.Refines -> incr refines
            | Some a, Enum_check.Counterexample { args; _ } when same_args a args -> incr cexs
            | _, v ->
              Alcotest.failf "seed %d: the full loop and the check differ (%s)" seed
                (Checker.verdict_to_string v))
        done;
        (* these pairs give 156 refinements, 20 counterexamples, 24
           undecided pairs and 3,565 skips *)
        Alcotest.(check bool) "both verdicts occur" true (!refines >= 50 && !cexs >= 10);
        Alcotest.(check bool) "most pairs are decided" true (!undecided <= 50);
        Alcotest.(check bool) "target enumerations were skipped" true
          (skipped () - before >= 1_000));
  ]

let () =
  Alcotest.run "refine"
    [ ("known-pairs", known_pairs); ("cross-validation", [ checkers_agree ]);
      ("verdict-cache", cache_tests); ("expansion", expansion_tests);
      ("budget", budget_tests); ("input-space", input_space_tests);
      ("regression", regression_tests); ("short-circuit", short_circuit_tests) ]
