(* The Section 3 soundness matrix: every problematic transformation the
   paper discusses, as a (source, target) IR pair, checked for refinement
   under every candidate semantics.  The paper's central qualitative
   claim falls out: NO single old semantics validates all of them, while
   the proposed semantics (+ the freeze-based fixes) validates the fixed
   set.

   Each entry records the paper's expectation per mode so the test suite
   can assert the whole matrix. *)

open Ub_ir

type expectation = Sound | Unsound | Either (* Either: not claimed by the paper *)

type entry = {
  id : string;
  section : string; (* where in the paper *)
  src : string; (* IR text *)
  tgt : string;
  inputs : Ub_sem.Value.t list list option; (* explicit inputs for enum-only entries *)
  expect : (string * expectation) list; (* per mode name *)
  note : string;
}

let f = Parser.parse_func_string

(* -------------------- the transformations -------------------------- *)

let mul2_to_add =
  { id = "mul2-to-add";
    section = "3.1";
    src = {|define i2 @f(i2 %x) {
e:
  %y = mul i2 %x, 2
  ret i2 %y
}|};
    tgt = {|define i2 @f(i2 %x) {
e:
  %y = add i2 %x, %x
  ret i2 %y
}|};
    inputs = None;
    expect =
      [ ("old-unswitch", Unsound); ("old-gvn", Unsound); ("old-langref", Unsound);
        ("old-simplifycfg", Unsound); ("proposed", Sound);
      ];
    note = "duplicating an SSA use of a possibly-undef value widens the result set";
  }

(* Section 3.2: hoisting 1/k above the loop guarded by k != 0.  With
   undef, the guard can pass while the hoisted division divides by a
   different materialization of k. *)
let div_hoist =
  { id = "div-hoist-guarded";
    section = "3.2";
    src = {|define i2 @f(i2 %k, i1 %c) {
e:
  %g = icmp ne i2 %k, 0
  br i1 %g, label %guarded, label %out
guarded:
  br i1 %c, label %use, label %out
use:
  %t = udiv i2 1, %k
  ret i2 %t
out:
  ret i2 0
}|};
    tgt = {|define i2 @f(i2 %k, i1 %c) {
e:
  %g = icmp ne i2 %k, 0
  br i1 %g, label %guarded, label %out
guarded:
  %t = udiv i2 1, %k
  br i1 %c, label %use, label %out
use:
  ret i2 %t
out:
  ret i2 0
}|};
    inputs = None;
    expect =
      [ ("old-unswitch", Unsound); ("old-langref", Unsound); ("old-simplifycfg", Unsound);
        (* every old mode has undef, and the guard and the hoisted use
           materialize it differently, so all of them are unsound; only
           the undef-free proposed semantics validates the hoist *)
        ("old-gvn", Unsound); ("proposed", Sound);
      ];
    note = "paper 3.2: unsound whenever undef exists (guard and use materialize differently)";
  }

(* Section 3.3, loop unswitching without freeze, distilled to its core:
   hoisting a branch to a place the original never branched.  If the loop
   never executes (c=false) and c2 is poison, the target branches on
   poison. *)
let unswitch_raw =
  { id = "loop-unswitch-raw";
    section = "3.3/5.1";
    src = {|define i2 @f(i1 %c, i1 %c2) {
e:
  br i1 %c, label %body, label %exit
body:
  br i1 %c2, label %t, label %u
t:
  ret i2 1
u:
  ret i2 2
exit:
  ret i2 0
}|};
    tgt = {|define i2 @f(i1 %c, i1 %c2) {
e:
  br i1 %c2, label %vt, label %vf
vt:
  br i1 %c, label %t, label %exit
vf:
  br i1 %c, label %u, label %exit
t:
  ret i2 1
u:
  ret i2 2
exit:
  ret i2 0
}|};
    inputs = None;
    expect =
      [ ("old-unswitch", Sound); ("old-langref", Sound); ("old-simplifycfg", Sound);
        ("old-gvn", Unsound); ("proposed", Unsound);
      ];
    note = "branch-on-poison=UB modes reject hoisting the branch; nondet modes accept";
  }

let unswitch_frozen =
  { unswitch_raw with
    id = "loop-unswitch-freeze";
    tgt = {|define i2 @f(i1 %c, i1 %c2) {
e:
  %fc2 = freeze i1 %c2
  br i1 %fc2, label %vt, label %vf
vt:
  br i1 %c, label %t, label %exit
vf:
  br i1 %c, label %u, label %exit
t:
  ret i2 1
u:
  ret i2 2
exit:
  ret i2 0
}|};
    expect =
      [ ("old-unswitch", Sound); ("old-langref", Sound); ("old-simplifycfg", Sound);
        ("old-gvn", Sound); ("proposed", Sound);
      ];
    note = "the Section 5.1 fix: freeze the hoisted condition";
  }

(* Section 3.3: GVN replacing w by y under t==y.  The call makes the
   difference observable. *)
let gvn_pred =
  { id = "gvn-predicate";
    section = "3.3";
    src = {|define void @f(i2 %x, i2 %y) {
e:
  %t = add i2 %x, 1
  %cmp = icmp eq i2 %t, %y
  br i1 %cmp, label %then, label %out
then:
  %w = add i2 %x, 1
  call void @foo(i2 %w)
  br label %out
out:
  ret void
}|};
    tgt = {|define void @f(i2 %x, i2 %y) {
e:
  %t = add i2 %x, 1
  %cmp = icmp eq i2 %t, %y
  br i1 %cmp, label %then, label %out
then:
  call void @foo(i2 %y)
  br label %out
out:
  ret void
}|};
    inputs = None;
    expect =
      [ ("old-unswitch", Unsound); ("old-langref", Unsound); ("old-simplifycfg", Unsound);
        (* branch-on-poison=UB is necessary but NOT sufficient while
           undef exists: t==y can hold for one materialization of an
           undef y while foo(y) observes another.  Only the proposed
           (undef-free) semantics validates GVN fully. *)
        ("old-gvn", Unsound); ("proposed", Sound);
      ];
    note = "needs branch-on-poison=UB AND no undef (per-use undef breaks substitution)";
  }

(* Section 3.4: SimplifyCFG phi -> select. *)
let phi_to_select =
  { id = "phi-to-select";
    section = "3.4";
    src = {|define i2 @f(i1 %c, i2 %a, i2 %b) {
e:
  br i1 %c, label %t, label %u
t:
  br label %m
u:
  br label %m
m:
  %x = phi i2 [ %a, %t ], [ %b, %u ]
  ret i2 %x
}|};
    tgt = {|define i2 @f(i1 %c, i2 %a, i2 %b) {
e:
  %x = select i1 %c, i2 %a, i2 %b
  ret i2 %x
}|};
    inputs = None;
    expect =
      [ (* Select_nondet_cond matches Branch_nondet; Select_ub_cond
           matches Branch_ub; Select_conditional returns poison where the
           branch was nondet — poison is NOT covered by a concrete
           source result, so old-simplifycfg is unsound here; arith makes
           select poison on poison arms too: also unsound vs nondet br *)
        ("old-unswitch", Sound); ("old-gvn", Sound); ("old-simplifycfg", Unsound);
        ("old-langref", Unsound); ("proposed", Sound);
      ];
    note = "needs select-on-poison to be no stronger than branch-on-poison";
  }

(* the reverse: select -> branch (Section 3.4 / 5.2) *)
let select_to_branch =
  { id = "select-to-branch";
    section = "3.4/5.2";
    src = {|define i2 @f(i1 %c, i2 %a, i2 %b) {
e:
  %x = select i1 %c, i2 %a, i2 %b
  ret i2 %x
}|};
    tgt = {|define i2 @f(i1 %c, i2 %a, i2 %b) {
e:
  br i1 %c, label %t, label %u
t:
  br label %m
u:
  br label %m
m:
  %x = phi i2 [ %a, %t ], [ %b, %u ]
  ret i2 %x
}|};
    inputs = None;
    expect =
      [ (* with Select_arith or Select_conditional the select source is
           at least as poisonous as the branch target, so all old modes
           accept this direction; the proposed mode rejects it because
           branch-on-poison is UB while select-on-poison is only poison *)
        ("old-unswitch", Sound); ("old-gvn", Sound); ("old-simplifycfg", Sound);
        ("old-langref", Sound); ("proposed", Unsound);
      ];
    note = "branch on poison must be no stronger than select on poison";
  }

let select_to_branch_frozen =
  { select_to_branch with
    id = "select-to-branch-freeze";
    tgt = {|define i2 @f(i1 %c, i2 %a, i2 %b) {
e:
  %fc = freeze i1 %c
  br i1 %fc, label %t, label %u
t:
  br label %m
u:
  br label %m
m:
  %x = phi i2 [ %a, %t ], [ %b, %u ]
  ret i2 %x
}|};
    expect =
      [ ("old-unswitch", Sound); ("old-gvn", Sound); ("old-simplifycfg", Sound);
        ("old-langref", Either); ("proposed", Sound);
      ];
    note = "the Section 5.2 reverse predication fix: freeze the condition";
  }

(* select c, true, x -> or c, x *)
let select_to_or =
  { id = "select-to-or";
    section = "3.4";
    src = {|define i1 @f(i1 %c, i1 %x) {
e:
  %r = select i1 %c, i1 true, i1 %x
  ret i1 %r
}|};
    tgt = {|define i1 @f(i1 %c, i1 %x) {
e:
  %r = or i1 %c, %x
  ret i1 %r
}|};
    inputs = None;
    expect =
      [ ("old-langref", Sound); (* select-as-arithmetic *)
        ("old-unswitch", Unsound); ("old-gvn", Unsound); ("old-simplifycfg", Unsound);
        ("proposed", Unsound);
      ];
    note = "sound only when select is poison if ANY operand is poison";
  }

(* The paper's prose says 'a safe version requires freezing %c'; the
   actually-safe version freezes the non-selected arm %x.  Both variants
   are in the matrix so the checker documents the difference. *)
let select_to_or_freeze_c =
  { select_to_or with
    id = "select-to-or-freeze-c";
    section = "6 (limitations)";
    tgt = {|define i1 @f(i1 %c, i1 %x) {
e:
  %fc = freeze i1 %c
  %r = or i1 %fc, %x
  ret i1 %r
}|};
    expect = [ ("proposed", Unsound) ];
    note = "freezing %c does NOT fix select->or: x=poison, c=true still breaks";
  }

let select_to_or_freeze_x =
  { select_to_or with
    id = "select-to-or-freeze-x";
    section = "6 (limitations)";
    tgt = {|define i1 @f(i1 %c, i1 %x) {
e:
  %fx = freeze i1 %x
  %r = or i1 %c, %fx
  ret i1 %r
}|};
    expect = [ ("proposed", Sound) ];
    note = "freezing the non-selected arm is the sound fix";
  }

(* select c, x, undef -> x (PR31633) *)
let select_undef_arm =
  { id = "select-undef-arm";
    section = "3.4";
    src = {|define i2 @f(i1 %c, i2 %x) {
e:
  %v = select i1 %c, i2 %x, i2 undef
  ret i2 %v
}|};
    tgt = {|define i2 @f(i1 %c, i2 %x) {
e:
  ret i2 %x
}|};
    inputs = None;
    expect =
      [ ("old-unswitch", Unsound); ("old-gvn", Unsound); ("old-simplifycfg", Unsound);
        (* under Select_arith a poison x already poisons the select, so
           the fold is (vacuously) sound in the LangRef reading *)
        ("old-langref", Sound);
        (* in the proposed semantics undef IS poison, so the select arm
           is poison and forwarding x refines it *)
        ("proposed", Sound);
      ];
    note = "x may be poison, and poison is stronger than undef (PR31633)";
  }

(* freeze algebra *)
let freeze_freeze =
  { id = "freeze-of-freeze";
    section = "6";
    src = {|define i2 @f(i2 %x) {
e:
  %a = freeze i2 %x
  %b = freeze i2 %a
  ret i2 %b
}|};
    tgt = {|define i2 @f(i2 %x) {
e:
  %a = freeze i2 %x
  ret i2 %a
}|};
    inputs = None;
    expect = [ ("proposed", Sound); ("old-unswitch", Sound); ("old-gvn", Sound) ];
    note = "freeze(freeze x) = freeze x";
  }

let freeze_dup =
  { id = "freeze-duplication";
    section = "5.5";
    src = {|define void @f(i2 %x, i1 %c) {
e:
  %y = freeze i2 %x
  br label %h
h:
  call void @use(i2 %y)
  call void @use(i2 %y)
  ret void
}|};
    tgt = {|define void @f(i2 %x, i1 %c) {
e:
  br label %h
h:
  %y1 = freeze i2 %x
  call void @use(i2 %y1)
  %y2 = freeze i2 %x
  call void @use(i2 %y2)
  ret void
}|};
    inputs =
      Some [ [ Ub_sem.Value.Scalar Ub_sem.Value.Poison; Ub_sem.Value.bool true ] ];
    expect = [ ("proposed", Unsound) ];
    note = "Pitfall 1: each freeze may choose differently; the trace can diverge";
  }

(* Section 2.4 / Figure 3: induction variable widening, distilled.
   sext(iv) vs widened 64-bit iv after possible nsw overflow. *)
let widen_nsw =
  { id = "indvar-widen-nsw";
    section = "2.4";
    src = {|define i4 @f(i2 %i) {
e:
  %i1 = add nsw i2 %i, 1
  %w = sext i2 %i1 to i4
  ret i4 %w
}|};
    tgt = {|define i4 @f(i2 %i) {
e:
  %iw = sext i2 %i to i4
  %w = add nsw i4 %iw, 1
  ret i4 %w
}|};
    inputs = None;
    expect =
      [ ("proposed", Sound); ("old-gvn", Sound); ("old-unswitch", Sound) ];
    note = "nsw=poison justifies widening: on overflow both sides are poison";
  }

let widen_wrap =
  { widen_nsw with
    id = "indvar-widen-wrapping";
    src = {|define i4 @f(i2 %i) {
e:
  %i1 = add i2 %i, 1
  %w = sext i2 %i1 to i4
  ret i4 %w
}|};
    expect = [ ("proposed", Unsound); ("old-unswitch", Unsound) ];
    note = "without nsw the narrow add wraps and the widened one does not";
  }

(* Section 2.4: a+b>a -> b>0 *)
let cmp_nsw =
  { id = "icmp-add-nsw";
    section = "2.4";
    src = {|define i1 @f(i2 %a, i2 %b) {
e:
  %add = add nsw i2 %a, %b
  %cmp = icmp sgt i2 %add, %a
  ret i1 %cmp
}|};
    tgt = {|define i1 @f(i2 %a, i2 %b) {
e:
  %cmp = icmp sgt i2 %b, 0
  ret i1 %cmp
}|};
    inputs = None;
    expect = [ ("proposed", Sound); ("old-unswitch", Sound); ("old-gvn", Sound) ];
    note = "justified by nsw returning poison";
  }

let cmp_wrap =
  { cmp_nsw with
    id = "icmp-add-wrapping";
    src = {|define i1 @f(i2 %a, i2 %b) {
e:
  %add = add i2 %a, %b
  %cmp = icmp sgt i2 %add, %a
  ret i1 %cmp
}|};
    expect = [ ("proposed", Unsound); ("old-unswitch", Unsound) ];
    note = "wrapping add does not justify the rewrite";
  }

(* Reassociation dropping vs keeping nsw (Section 10.2). *)
let reassoc_drop =
  { id = "reassociate-drop-nsw";
    section = "10.2";
    src = {|define i2 @f(i2 %x) {
e:
  %a = add nsw i2 %x, 3
  %b = add nsw i2 %a, -3
  ret i2 %b
}|};
    tgt = {|define i2 @f(i2 %x) {
e:
  ret i2 %x
}|};
    inputs = None;
    expect = [ ("proposed", Sound) ];
    note = "folding (x+3)-3 to x after DROPPING nsw is sound";
  }

let reassoc_keep =
  { id = "reassociate-keep-nsw";
    section = "10.2";
    src = {|define i2 @f(i2 %x, i2 %y) {
e:
  %a = add i2 %x, %y
  ret i2 %a
}|};
    tgt = {|define i2 @f(i2 %x, i2 %y) {
e:
  %a = add nsw i2 %x, %y
  ret i2 %a
}|};
    inputs = None;
    expect = [ ("proposed", Unsound); ("old-unswitch", Unsound) ];
    note = "ADDING (keeping stale) nsw manufactures poison: the reassociation bug";
  }

let all_entries =
  [ mul2_to_add; div_hoist; unswitch_raw; unswitch_frozen; gvn_pred; phi_to_select;
    select_to_branch; select_to_branch_frozen; select_to_or; select_to_or_freeze_c;
    select_to_or_freeze_x; select_undef_arm; freeze_freeze; freeze_dup; widen_nsw;
    widen_wrap; cmp_nsw; cmp_wrap; reassoc_drop; reassoc_keep;
  ]

(* -------------------- running the matrix --------------------------- *)

type cell = {
  mode_name : string;
  verdict : Checker.verdict;
  expected : expectation option;
  agrees : bool option; (* None when expected = Either or verdict unknown *)
}

(* The (entry x mode) cells go through [Sweep], so they run on the
   worker pool with verdicts optionally memoized in a persistent
   [Ub_exec.Cache].  Cell order in the output is entry-major, then
   [Ub_sem.Mode.all], regardless of [jobs], scheduling, or cache state; a
   worker crash or per-task timeout degrades only the affected cell to
   [Checker.Unknown]. *)

type exec_report = {
  results : (entry * cell list) list;
  pool : Ub_exec.Pool.stats;
  cache_hits : int;
  cache_misses : int;
}

let cell_of_verdict (e : entry) (mode : Ub_sem.Mode.t) (verdict : Checker.verdict) : cell =
  let expected = List.assoc_opt mode.Ub_sem.Mode.name e.expect in
  let agrees =
    match (verdict, expected) with
    | _, (None | Some Either) -> None
    | Checker.Refines, Some Sound -> Some true
    | Checker.Counterexample _, Some Unsound -> Some true
    | Checker.Refines, Some Unsound | Checker.Counterexample _, Some Sound -> Some false
    | Checker.Unknown _, _ -> None
  in
  { mode_name = mode.Ub_sem.Mode.name; verdict; expected; agrees }

let run_all_exec ?jobs ?timeout_s ?(cache : Ub_exec.Cache.t option) () : exec_report =
  let modes = Ub_sem.Mode.all in
  let tasks =
    List.concat_map
      (fun (e : entry) ->
        let src = f e.src and tgt = f e.tgt in
        List.map (fun mode -> { Sweep.mode; src; tgt; inputs = e.inputs }) modes)
      all_entries
    |> Array.of_list
  in
  let r = Sweep.check ?jobs ?timeout_s ?cache tasks in
  let n_modes = List.length modes in
  let results =
    List.mapi
      (fun ei (e : entry) ->
        let cell mi mode = cell_of_verdict e mode r.verdicts.((ei * n_modes) + mi) in
        (e, List.mapi cell modes))
      all_entries
  in
  { results; pool = r.pool; cache_hits = r.cache_hits; cache_misses = r.cache_misses }
