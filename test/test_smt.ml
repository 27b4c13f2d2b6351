(* Bit-blaster: circuit construction, Tseitin + solver integration, and
   agreement with Bitvec on random inputs for every operation. *)

open Ub_support
open Ub_smt

(* A checker-style query that mentions the same product twice:
   5 < a*b and a*b < 9 over 6-bit inputs. *)
let solve_reference_query ctx =
  let a = Bvterm.fresh ctx ~width:6 and b = Bvterm.fresh ctx ~width:6 in
  let m1 = Bvterm.mul ctx a b in
  let m2 = Bvterm.mul ctx a b in
  let c5 = Bvterm.const ctx (Bitvec.of_int ~width:6 5) in
  let c9 = Bvterm.const ctx (Bitvec.of_int ~width:6 9) in
  let root = Circuit.band ctx (Bvterm.ult ctx c5 m1) (Bvterm.ult ctx m2 c9) in
  let stats = ref Circuit.Cnf.no_stats in
  let sat =
    match Circuit.Cnf.solve ~stats ctx root with
    | Circuit.Cnf.Sat_model _ -> true
    | Circuit.Cnf.Unsat_r -> false
  in
  (sat, !stats)

(* An xor over [n] fresh inputs: its support is all of them. *)
let wide_xor ctx n =
  let vars = Array.init n (fun _ -> Circuit.fresh ctx) in
  (vars, Array.fold_left (Circuit.bxor ctx) Circuit.bfalse vars)

(* [root] conjoined with an odd parity over 40 more inputs: satisfiable
   on its own, so the verdict is [root]'s, but too many inputs for the
   simulator to take. *)
let past_the_bound ctx root = Circuit.band ctx root (snd (wide_xor ctx 40))

(* Pigeonhole: [p] pigeons in [h] holes, unsat when p > h, and any
   refutation needs a conflict. *)
let pigeonhole ctx ~p ~h =
  let x = Array.init p (fun _ -> Array.init h (fun _ -> Circuit.fresh ctx)) in
  let root = ref Circuit.btrue in
  Array.iter
    (fun row -> root := Circuit.band ctx !root (Circuit.big_or ctx (Array.to_list row)))
    x;
  for j = 0 to h - 1 do
    for i = 0 to p - 1 do
      for i' = i + 1 to p - 1 do
        root := Circuit.band ctx !root (Circuit.bnot ctx (Circuit.band ctx x.(i).(j) x.(i').(j)))
      done
    done
  done;
  !root

let engine = Alcotest.testable (Fmt.of_to_string Circuit.Cnf.engine_name) ( = )

let unit_tests =
  [ Alcotest.test_case "constant folding in smart constructors" `Quick (fun () ->
        let ctx = Circuit.create_ctx () in
        Alcotest.(check bool) "and false" true
          (Circuit.is_false (Circuit.band ctx Circuit.btrue Circuit.bfalse));
        Alcotest.(check bool) "x and not x" true
          (let x = Circuit.fresh ctx in
           Circuit.is_false (Circuit.band ctx x (Circuit.bnot ctx x)));
        Alcotest.(check bool) "x xor x" true
          (let x = Circuit.fresh ctx in
           Circuit.is_false (Circuit.bxor ctx x x)));
    Alcotest.test_case "cnf: simple equivalence" `Quick (fun () ->
        let ctx = Circuit.create_ctx () in
        let x = Circuit.fresh ctx and y = Circuit.fresh ctx in
        (* (x and y) and (not x) is unsat *)
        let root = Circuit.band ctx (Circuit.band ctx x y) (Circuit.bnot ctx x) in
        (match Circuit.Cnf.solve ctx root with
        | Circuit.Cnf.Unsat_r -> ()
        | Circuit.Cnf.Sat_model _ -> Alcotest.fail "should be unsat"));
    Alcotest.test_case "cnf: model extraction" `Quick (fun () ->
        let ctx = Circuit.create_ctx () in
        let a = Bvterm.fresh ctx ~width:8 in
        (* a + 1 == 0 forces a = 255 *)
        let sum = Bvterm.add ctx a (Bvterm.const ctx (Bitvec.of_int ~width:8 1)) in
        let root = Bvterm.eq ctx sum (Bvterm.const ctx (Bitvec.zero 8)) in
        match Circuit.Cnf.solve ctx root with
        | Circuit.Cnf.Sat_model m ->
          let v = ref 0 in
          Array.iteri (fun i bit -> if Circuit.eval m.Circuit.Cnf.bool_of_input bit then v := !v lor (1 lsl i)) a;
          Alcotest.(check int) "a = 255" 255 !v
        | Circuit.Cnf.Unsat_r -> Alcotest.fail "should be sat");
    Alcotest.test_case "budget exhaustion reports Too_hard and recovers" `Quick (fun () ->
        (* pigeonhole (4 pigeons, 3 holes) is unsat and any refutation
           needs a conflict, so a zero-conflict budget always trips; the
           parity conjunct puts the query past the simulator's bound,
           which would otherwise decide it *)
        let ctx = Circuit.create_ctx () in
        let root = past_the_bound ctx (pigeonhole ctx ~p:4 ~h:3) in
        let stats = ref Circuit.Cnf.no_stats in
        (match Circuit.Cnf.solve ~max_conflicts:0 ~stats ctx root with
        | exception Circuit.Cnf.Too_hard -> ()
        | _ -> Alcotest.fail "a zero-conflict budget must raise Too_hard");
        Alcotest.(check bool) "stats filled on Too_hard" true (!stats.Circuit.Cnf.cnf_vars > 1);
        Alcotest.check engine "Too_hard is CDCL's" Circuit.Cnf.Cdcl !stats.Circuit.Cnf.engine;
        (* the context survives: the same circuit solves under a real budget *)
        match Circuit.Cnf.solve ctx root with
        | Circuit.Cnf.Unsat_r -> ()
        | Circuit.Cnf.Sat_model _ -> Alcotest.fail "pigeonhole is unsat");
    Alcotest.test_case "every query hands its solver arena back" `Quick (fun () ->
        let module Solver = Ub_sat.Solver in
        (* the spare is emptied first, so a spare afterwards is the one
           this query handed back *)
        let handed_back what query =
          Solver.spare := Solver.no_arena;
          query ();
          Alcotest.(check bool) what true (Bigarray.Array1.dim !Solver.spare > 0)
        in
        let ctx = Circuit.create_ctx () in
        let a = Circuit.fresh ctx and b = Circuit.fresh ctx and c = Circuit.fresh ctx in
        (* an odd cycle of xors: unsat, but only after a decision and a
           conflict *)
        let hard =
          Circuit.band ctx (Circuit.bxor ctx a b)
            (Circuit.band ctx (Circuit.bxor ctx b c) (Circuit.bxor ctx a c))
        in
        (* too wide to simulate, so a zero-conflict budget trips *)
        handed_back "Too_hard" (fun () ->
            match Circuit.Cnf.solve ~max_conflicts:0 ctx (past_the_bound ctx hard) with
            | exception Circuit.Cnf.Too_hard -> ()
            | _ -> Alcotest.fail "a zero-conflict budget must raise Too_hard");
        (* small enough, so the simulator decides it after the probe *)
        handed_back "simulated" (fun () ->
            let stats = ref Circuit.Cnf.no_stats in
            (match Circuit.Cnf.solve ~max_conflicts:0 ~stats ctx hard with
            | Circuit.Cnf.Unsat_r -> ()
            | Circuit.Cnf.Sat_model _ -> Alcotest.fail "an odd xor cycle is unsat");
            Alcotest.check engine "decided by simulation" Circuit.Cnf.Simulation
              !stats.Circuit.Cnf.engine);
        handed_back "level-0 Unsat from add_clause" (fun () ->
            match Circuit.Cnf.solve ctx Circuit.bfalse with
            | Circuit.Cnf.Unsat_r -> ()
            | Circuit.Cnf.Sat_model _ -> Alcotest.fail "false is unsat");
        handed_back "Sat" (fun () ->
            match Circuit.Cnf.solve ctx (Circuit.bxor ctx a b) with
            | Circuit.Cnf.Sat_model _ -> ()
            | Circuit.Cnf.Unsat_r -> Alcotest.fail "a xor b is sat"));
    Alcotest.test_case "hash-consing shrinks the Tseitin CNF by >= 30%" `Quick (fun () ->
        (* A checker-style query that mentions the same product twice,
           built once with structural sharing and once without.  The
           shared build must encode the multiplier circuit a single time,
           cutting CNF variables and clauses well past the 30% bar. *)
        let sat_shared, shared = solve_reference_query (Circuit.create_ctx ()) in
        let sat_plain, plain = solve_reference_query (Circuit.create_ctx ~sharing:false ()) in
        Alcotest.(check bool) "verdicts agree" sat_plain sat_shared;
        Alcotest.(check bool) "5 < a*b < 9 is satisfiable" true sat_shared;
        let shrunk part s p =
          Alcotest.(check bool)
            (Printf.sprintf "%s shrink >= 30%% (%d vs %d)" part s p)
            true
            (s * 10 <= p * 7)
        in
        shrunk "cnf vars" shared.Circuit.Cnf.cnf_vars plain.Circuit.Cnf.cnf_vars;
        shrunk "cnf clauses" shared.Circuit.Cnf.cnf_clauses plain.Circuit.Cnf.cnf_clauses);
    Alcotest.test_case "the reference query's CNF and search trajectory are pinned" `Quick
      (fun () ->
        (* Variable numbering, clause set, literal order and solver size
           fix the search.  A change that renumbers or reorders the CNF
           moves these counts and must update them on purpose. *)
        let sat, st = solve_reference_query (Circuit.create_ctx ()) in
        Alcotest.(check bool) "satisfiable" true sat;
        Alcotest.(check int) "circuit nodes" 135 st.Circuit.Cnf.circuit_nodes;
        Alcotest.(check int) "cnf vars" 96 st.Circuit.Cnf.cnf_vars;
        Alcotest.(check int) "cnf clauses" 276 st.Circuit.Cnf.cnf_clauses;
        Alcotest.(check int) "conflicts" 1 st.Circuit.Cnf.conflicts;
        Alcotest.(check int) "decisions" 56 st.Circuit.Cnf.decisions;
        Alcotest.(check int) "propagations" 166 st.Circuit.Cnf.propagations;
        Alcotest.check engine "decided by CDCL" Circuit.Cnf.Cdcl st.Circuit.Cnf.engine;
        Alcotest.(check int) "no simulated blocks" 0 st.Circuit.Cnf.sim_blocks);
    Alcotest.test_case "udiv circuit guards against zero later" `Quick (fun () ->
        let ctx = Circuit.create_ctx () in
        let a = Bvterm.const ctx (Bitvec.of_int ~width:4 13) in
        let b = Bvterm.const ctx (Bitvec.of_int ~width:4 3) in
        let q, r = Bvterm.udiv_urem ctx a b in
        let qv = ref 0 and rv = ref 0 in
        Array.iteri (fun i bit -> if Circuit.eval (fun _ -> false) bit then qv := !qv lor (1 lsl i)) q;
        Array.iteri (fun i bit -> if Circuit.eval (fun _ -> false) bit then rv := !rv lor (1 lsl i)) r;
        Alcotest.(check int) "13/3" 4 !qv;
        Alcotest.(check int) "13%3" 1 !rv);
  ]

(* exhaustive agreement with Bitvec for every op at small widths, plus
   random checks at larger widths *)
let eval_bv assign (sym : Bvterm.t) : int =
  let v = ref 0 in
  Array.iteri (fun i bit -> if Circuit.eval assign bit then v := !v lor (1 lsl i)) sym;
  !v

let agreement_test ~w name symf concf =
  Alcotest.test_case (Printf.sprintf "%s agrees @ i%d (exhaustive)" name w) `Slow (fun () ->
      for a = 0 to (1 lsl w) - 1 do
        for b = 0 to (1 lsl w) - 1 do
          let ctx = Circuit.create_ctx () in
          let sa = Bvterm.fresh ctx ~width:w and sb = Bvterm.fresh ctx ~width:w in
          let assign i = if i < w then (a lsr i) land 1 = 1 else (b lsr (i - w)) land 1 = 1 in
          let sym = symf ctx sa sb in
          let conc = concf (Bitvec.of_int ~width:w a) (Bitvec.of_int ~width:w b) in
          if eval_bv assign sym <> Bitvec.to_uint_exn conc then
            Alcotest.failf "%s(%d,%d) mismatch" name a b
        done
      done)

let bool_agreement_test ~w name symf concf =
  Alcotest.test_case (Printf.sprintf "%s agrees @ i%d (exhaustive)" name w) `Slow (fun () ->
      for a = 0 to (1 lsl w) - 1 do
        for b = 0 to (1 lsl w) - 1 do
          let ctx = Circuit.create_ctx () in
          let sa = Bvterm.fresh ctx ~width:w and sb = Bvterm.fresh ctx ~width:w in
          let assign i = if i < w then (a lsr i) land 1 = 1 else (b lsr (i - w)) land 1 = 1 in
          let sym = symf ctx sa sb in
          let conc = concf (Bitvec.of_int ~width:w a) (Bitvec.of_int ~width:w b) in
          if Circuit.eval assign sym <> conc then Alcotest.failf "%s(%d,%d) mismatch" name a b
        done
      done)

let exhaustive_tests =
  [ agreement_test ~w:3 "add" Bvterm.add Bitvec.add;
    agreement_test ~w:3 "sub" Bvterm.sub Bitvec.sub;
    agreement_test ~w:3 "mul" Bvterm.mul Bitvec.mul;
    bool_agreement_test ~w:3 "ult" Bvterm.ult Bitvec.ult;
    bool_agreement_test ~w:3 "slt" Bvterm.slt Bitvec.slt;
    bool_agreement_test ~w:3 "eq" Bvterm.eq Bitvec.eq;
    bool_agreement_test ~w:3 "add_nsw_ovf" Bvterm.add_nsw_overflows Bitvec.add_nsw_overflows;
    bool_agreement_test ~w:3 "mul_nsw_ovf" Bvterm.mul_nsw_overflows Bitvec.mul_nsw_overflows;
    bool_agreement_test ~w:3 "sub_nuw_ovf" Bvterm.sub_nuw_overflows Bitvec.sub_nuw_overflows;
  ]

(* the udiv test above needs b!=0 guarding: rewrite as explicit loop *)
let div_tests =
  [ Alcotest.test_case "udiv/sdiv/urem/srem exhaustive @ i4 (b != 0)" `Slow (fun () ->
        let w = 4 in
        for a = 0 to 15 do
          for b = 1 to 15 do
            let ctx = Circuit.create_ctx () in
            let sa = Bvterm.const ctx (Bitvec.of_int ~width:w a) in
            let sb = Bvterm.const ctx (Bitvec.of_int ~width:w b) in
            let ba = Bitvec.of_int ~width:w a and bb = Bitvec.of_int ~width:w b in
            let chk name sym conc =
              if eval_bv (fun _ -> false) sym <> Bitvec.to_uint_exn conc then
                Alcotest.failf "%s(%d,%d)" name a b
            in
            chk "udiv" (Bvterm.udiv ctx sa sb) (Bitvec.udiv ba bb);
            chk "urem" (Bvterm.urem ctx sa sb) (Bitvec.urem ba bb);
            chk "sdiv" (Bvterm.sdiv ctx sa sb) (Bitvec.sdiv ba bb);
            chk "srem" (Bvterm.srem ctx sa sb) (Bitvec.srem ba bb)
          done
        done);
    Alcotest.test_case "shifts exhaustive @ i4" `Slow (fun () ->
        let w = 4 in
        for a = 0 to 15 do
          for n = 0 to 3 do
            let ctx = Circuit.create_ctx () in
            let sa = Bvterm.const ctx (Bitvec.of_int ~width:w a) in
            let sn = Bvterm.const ctx (Bitvec.of_int ~width:w n) in
            let ba = Bitvec.of_int ~width:w a in
            let chk name sym conc =
              if eval_bv (fun _ -> false) sym <> Bitvec.to_uint_exn conc then
                Alcotest.failf "%s(%d,%d)" name a n
            in
            chk "shl" (Bvterm.shl ctx sa sn) (Bitvec.shl ba n);
            chk "lshr" (Bvterm.lshr ctx sa sn) (Bitvec.lshr ba n);
            chk "ashr" (Bvterm.ashr ctx sa sn) (Bitvec.ashr ba n)
          done
        done);
  ]

(* random agreement at width 16 through the SAT solver: assert the
   circuit `op(a,b) != conc` is UNSAT for fixed a,b *)
let solver_agreement =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"solver-checked agreement @ i16" ~count:40
       QCheck2.Gen.(pair (int_bound 65535) (int_bound 65535))
       (fun (a, b) ->
         let ctx = Circuit.create_ctx () in
         let sa = Bvterm.const ctx (Bitvec.of_int ~width:16 a) in
         let sb = Bvterm.const ctx (Bitvec.of_int ~width:16 b) in
         let sum = Bvterm.mul ctx sa sb in
         let conc = Bitvec.mul (Bitvec.of_int ~width:16 a) (Bitvec.of_int ~width:16 b) in
         let neq = Bvterm.ne ctx sum (Bvterm.const ctx conc) in
         match Circuit.Cnf.solve ctx neq with
         | Circuit.Cnf.Unsat_r -> true
         | Circuit.Cnf.Sat_model _ -> false))

(* Cofactoring: a random circuit whose inputs are created between its
   gates (so some gates predate the substituted inputs), a random subset
   of inputs substituted, and a run of assignments through one prepared
   cofactor, so the incremental rebuild is exercised too.  The support
   is a subset of the substituted inputs, and under every sampled σ,
   eval of the cofactor for assignment a equals eval of the original
   under σ overridden by a on the support. *)
let input_index (b : Circuit.t) =
  match b.Circuit.node with Circuit.Input i -> i | _ -> assert false

let random_circuit ?(max_inputs = max_int) ctx rng ~gates =
  let inputs = ref [ Circuit.fresh ctx; Circuit.fresh ctx ] in
  let pool = ref !inputs in
  for _ = 1 to gates do
    if List.length !inputs < max_inputs && Prng.chance rng ~num:1 ~den:5 then begin
      let x = Circuit.fresh ctx in
      inputs := x :: !inputs;
      pool := x :: !pool
    end;
    let pick () = Prng.choose_list rng !pool in
    let g =
      match Prng.int rng 5 with
      | 0 -> Circuit.bnot ctx (pick ())
      | 1 -> Circuit.band ctx (pick ()) (pick ())
      | 2 -> Circuit.bor ctx (pick ()) (pick ())
      | 3 -> Circuit.bxor ctx (pick ()) (pick ())
      | _ -> Circuit.bite ctx (pick ()) (pick ()) (pick ())
    in
    pool := g :: !pool
  done;
  (List.rev !inputs, List.hd !pool)

let cofactor_agrees =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"eval (cofactor σ) = eval original under σ[x:=b]" ~count:300
       QCheck2.Gen.(int_range 0 1_000_000)
       (fun seed ->
         let rng = Prng.create ~seed in
         let ctx = Circuit.create_ctx () in
         let inputs, root = random_circuit ctx rng ~gates:(5 + Prng.int rng 40) in
         let vars = Array.of_list (List.filter (fun _ -> Prng.bool rng) inputs) in
         (* a limit the support can reach but not pass *)
         let cf = Circuit.cofactor ctx ~max_support:(Array.length vars) ~vars root in
         let support = cf.Circuit.support in
         let nv = Array.length support in
         Array.for_all (fun v -> Array.memq v vars) support
         && List.for_all
           (fun _ ->
             let a = Prng.int rng (1 lsl nv) in
             let cof = Circuit.cofactor_apply cf a in
             List.for_all
               (fun _ ->
                 let sigma = Prng.int rng (1 lsl 30) in
                 let base i = (sigma lsr (i mod 30)) land 1 = 1 in
                 let overridden i =
                   let rec find k =
                     if k = nv then base i
                     else if input_index support.(k) = i then (a lsr k) land 1 = 1
                     else find (k + 1)
                   in
                   find 0
                 in
                 Circuit.eval base cof = Circuit.eval overridden root)
               (List.init 8 Fun.id))
           (List.init 6 Fun.id)))

(* The support budget: on a random circuit, [cofactor ~max_support:l]
   raises [Support_exceeds (l + 1)] exactly when the unbounded support
   is larger than l, and otherwise prepares the same support. *)
let support_limit =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"Support_exceeds exactly when the support passes the limit"
       ~count:300
       QCheck2.Gen.(int_range 0 1_000_000)
       (fun seed ->
         let rng = Prng.create ~seed in
         let ctx = Circuit.create_ctx () in
         let inputs, root = random_circuit ctx rng ~gates:(5 + Prng.int rng 40) in
         let vars = Array.of_list inputs in
         let support = (Circuit.cofactor ctx ~vars root).Circuit.support in
         let limit = Prng.int rng (Array.length support + 2) in
         match Circuit.cofactor ctx ~max_support:limit ~vars root with
         | cf ->
           Array.length support <= limit
           && Array.length cf.Circuit.support = Array.length support
           && Array.for_all2 ( == ) cf.Circuit.support support
         | exception Circuit.Support_exceeds k ->
           Array.length support > limit && k = limit + 1))

let cofactor_tests =
  [ Alcotest.test_case "support past the int mask width raises instead of wrapping" `Quick
      (fun () ->
        let ctx = Circuit.create_ctx () in
        let vars, root = wide_xor ctx 70 in
        let raises ?max_support () =
          match Circuit.cofactor ctx ?max_support ~vars root with
          | _ -> None
          | exception Circuit.Support_exceeds k -> Some k
        in
        let width = Sys.int_size - 1 in
        Alcotest.(check (option int)) "default limit is the mask width" (Some (width + 1))
          (raises ());
        Alcotest.(check (option int)) "a larger limit is capped at the mask width"
          (Some (width + 1)) (raises ~max_support:100 ());
        Alcotest.(check (option int)) "a small limit stops the walk early" (Some 11)
          (raises ~max_support:10 ());
        (* 70 substitutable vars, but a root that reads 3 of them *)
        let narrow = Circuit.band ctx vars.(0) (Circuit.bor ctx vars.(35) vars.(69)) in
        let cf = Circuit.cofactor ctx ~max_support:3 ~vars narrow in
        Alcotest.(check int) "support within the limit" 3 (Array.length cf.Circuit.support));
    Alcotest.test_case "nodes outside the substituted support come back unchanged" `Quick
      (fun () ->
        let ctx = Circuit.create_ctx () in
        let x = Circuit.fresh ctx and y = Circuit.fresh ctx and v = Circuit.fresh ctx in
        let g = Circuit.band ctx x y in
        let root = Circuit.bor ctx (Circuit.band ctx v x) g in
        let cf = Circuit.cofactor ctx ~vars:[| v |] root in
        Alcotest.(check bool) "v := 0 leaves g itself" true (Circuit.cofactor_apply cf 0 == g);
        Alcotest.(check bool) "v := 1 folds to x" true (Circuit.cofactor_apply cf 1 == x);
        let outside = Circuit.cofactor ctx ~vars:[| v |] g in
        Alcotest.(check int) "v is outside g's support" 0 (Array.length outside.Circuit.support);
        Alcotest.(check bool) "a root outside the cone is returned as-is" true
          (Circuit.cofactor_apply outside 0 == g));
    cofactor_agrees;
    support_limit;
  ]

(* Exhaustive simulation against CDCL: on random circuits over at most
   12 inputs, built from every gate kind, the two engines agree on the
   verdict, and every model either returns satisfies the root under
   [Circuit.eval]. *)
let satisfies root = function
  | Circuit.Cnf.Unsat_r -> true
  | Circuit.Cnf.Sat_model m -> Circuit.eval m.Circuit.Cnf.bool_of_input root

let simulation_agrees =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"simulation and CDCL agree on random circuits" ~count:300
       QCheck2.Gen.(int_range 0 1_000_000)
       (fun seed ->
         let rng = Prng.create ~seed in
         let ctx = Circuit.create_ctx () in
         let _, root = random_circuit ~max_inputs:12 ctx rng ~gates:(5 + Prng.int rng 60) in
         let sim = Circuit.Cnf.simulate ctx root in
         let stats = ref Circuit.Cnf.no_stats in
         let cdcl = Circuit.Cnf.solve ~stats ctx root in
         let is_sat = function Circuit.Cnf.Sat_model _ -> true | Circuit.Cnf.Unsat_r -> false in
         !stats.Circuit.Cnf.engine = Circuit.Cnf.Cdcl
         && is_sat sim = is_sat cdcl
         && satisfies root sim && satisfies root cdcl))

(* The conjunction of [n] fresh inputs: true only when all are, which is
   the last lane of the last block. *)
let all_of ctx n =
  let xs = Array.init n (fun _ -> Circuit.fresh ctx) in
  (xs, Circuit.big_and ctx (Array.to_list xs))

let counter = Ub_obs.Obs.counter_value

let simulation_tests =
  [ Alcotest.test_case "every lane is read with 0 to 6 inputs" `Quick (fun () ->
        for n = 0 to 6 do
          let ctx = Circuit.create_ctx () in
          let xs, root = all_of ctx n in
          match Circuit.Cnf.simulate ctx root with
          | Circuit.Cnf.Unsat_r -> Alcotest.failf "the conjunction of %d inputs is sat" n
          | Circuit.Cnf.Sat_model m ->
            Array.iteri
              (fun i x ->
                Alcotest.(check bool)
                  (Printf.sprintf "input %d of %d is true" i n)
                  true
                  (Circuit.eval m.Circuit.Cnf.bool_of_input x))
              xs
        done;
        (* and an unsat cone that no folding removes: the inputs all
           true and the first two different *)
        for n = 2 to 6 do
          let ctx = Circuit.create_ctx () in
          let xs, all = all_of ctx n in
          let root = Circuit.band ctx all (Circuit.bxor ctx xs.(0) xs.(1)) in
          Alcotest.(check bool) (Printf.sprintf "not folded (%d inputs)" n) false
            (Circuit.is_false root);
          match Circuit.Cnf.simulate ctx root with
          | Circuit.Cnf.Unsat_r -> ()
          | Circuit.Cnf.Sat_model _ -> Alcotest.failf "unsat cone of %d inputs reads sat" n
        done);
    Alcotest.test_case "a root constant after folding" `Quick (fun () ->
        let ctx = Circuit.create_ctx () in
        let x = Circuit.fresh ctx in
        let t = Circuit.bor ctx x (Circuit.bnot ctx x) and f = Circuit.band ctx x (Circuit.bnot ctx x) in
        Alcotest.(check bool) "folds to true" true (Circuit.is_true t);
        Alcotest.(check bool) "folds to false" true (Circuit.is_false f);
        (match Circuit.Cnf.simulate ctx t with
        | Circuit.Cnf.Sat_model _ -> ()
        | Circuit.Cnf.Unsat_r -> Alcotest.fail "true is sat");
        match Circuit.Cnf.simulate ctx f with
        | Circuit.Cnf.Unsat_r -> ()
        | Circuit.Cnf.Sat_model _ -> Alcotest.fail "false is unsat");
    Alcotest.test_case "a query past the hand-off is decided by simulation" `Quick (fun () ->
        (* a*b <> b*a at i7: 14 inputs, and more conflicts than the
           hand-off allows *)
        let ctx = Circuit.create_ctx () in
        let a = Bvterm.fresh ctx ~width:7 and b = Bvterm.fresh ctx ~width:7 in
        let root = Bvterm.ne ctx (Bvterm.mul ctx a b) (Bvterm.mul ctx b a) in
        let decided = counter "smt.sim.decided" and handoffs = counter "smt.sim.handoffs"
        and blocks = counter "smt.sim.blocks" in
        let stats = ref Circuit.Cnf.no_stats in
        (match Circuit.Cnf.solve ~stats ctx root with
        | Circuit.Cnf.Unsat_r -> ()
        | Circuit.Cnf.Sat_model _ -> Alcotest.fail "multiplication commutes");
        let st = !stats in
        Alcotest.(check int) "one hand-off" 1 (counter "smt.sim.handoffs" - handoffs);
        Alcotest.(check int) "decided by simulation" 1 (counter "smt.sim.decided" - decided);
        Alcotest.check engine "engine" Circuit.Cnf.Simulation st.Circuit.Cnf.engine;
        (* unsat: every block of 2^14 assignments *)
        Alcotest.(check int) "all blocks" 512 st.Circuit.Cnf.sim_blocks;
        Alcotest.(check int) "blocks counted" 512 (counter "smt.sim.blocks" - blocks);
        (* the probe's counters are kept *)
        Alcotest.(check int) "probe conflicts" (Circuit.Cnf.handoff_conflicts + 1)
          st.Circuit.Cnf.conflicts;
        Alcotest.(check bool) "probe decisions" true (st.Circuit.Cnf.decisions > 0));
    Alcotest.test_case "a query past the bound stays on CDCL" `Quick (fun () ->
        let ctx = Circuit.create_ctx () in
        let root = past_the_bound ctx (pigeonhole ctx ~p:7 ~h:6) in
        let decided = counter "smt.sim.decided" and handoffs = counter "smt.sim.handoffs" in
        let stats = ref Circuit.Cnf.no_stats in
        (match Circuit.Cnf.solve ~stats ctx root with
        | Circuit.Cnf.Unsat_r -> ()
        | Circuit.Cnf.Sat_model _ -> Alcotest.fail "pigeonhole is unsat");
        let st = !stats in
        Alcotest.(check int) "one hand-off" 1 (counter "smt.sim.handoffs" - handoffs);
        Alcotest.(check int) "not simulated" 0 (counter "smt.sim.decided" - decided);
        Alcotest.check engine "engine" Circuit.Cnf.Cdcl st.Circuit.Cnf.engine;
        Alcotest.(check int) "no blocks" 0 st.Circuit.Cnf.sim_blocks;
        Alcotest.(check bool)
          (Printf.sprintf "CDCL went on past the hand-off (%d conflicts)" st.Circuit.Cnf.conflicts)
          true
          (st.Circuit.Cnf.conflicts > Circuit.Cnf.handoff_conflicts + 1));
    simulation_agrees;
  ]

let () =
  Alcotest.run "smt"
    [ ("unit", unit_tests);
      ("exhaustive", exhaustive_tests @ div_tests);
      ("solver", [ solver_agreement ]);
      ("cofactor", cofactor_tests);
      ("simulate", simulation_tests);
    ]
