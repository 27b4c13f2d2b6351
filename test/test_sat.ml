(* The CDCL solver: unit cases and exhaustive cross-checking against
   brute force on random instances. *)

open Ub_sat

(* A naive DPLL reference solver: unit propagation plus chronological
   splitting, no learning, no heuristics.  Slow but obviously correct;
   the CDCL solver must agree with it on instances too large for the
   2^n brute-force check. *)
let dpll nvars clauses =
  let assign = Array.make (max 1 nvars) 0 in
  let value l =
    match assign.(Solver.var_of l) with
    | 0 -> `Unk
    | 1 -> if Solver.is_neg l then `False else `True
    | _ -> if Solver.is_neg l then `True else `False
  in
  let set l = assign.(Solver.var_of l) <- (if Solver.is_neg l then 2 else 1) in
  let rec go () =
    let trail = ref [] in
    let conflict = ref false in
    let progress = ref true in
    while !progress do
      progress := false;
      List.iter
        (fun c ->
          if not !conflict then begin
            let sat = ref false and unk = ref [] in
            List.iter
              (fun l ->
                match value l with
                | `True -> sat := true
                | `Unk -> unk := l :: !unk
                | `False -> ())
              c;
            if not !sat then
              match !unk with
              | [] -> conflict := true
              | [ l ] ->
                set l;
                trail := Solver.var_of l :: !trail;
                progress := true
              | _ -> ()
          end)
        clauses;
      if !conflict then progress := false
    done;
    let result =
      if !conflict then false
      else begin
        let next = ref (-1) in
        (try
           for v = 0 to nvars - 1 do
             if assign.(v) = 0 then begin
               next := v;
               raise Exit
             end
           done
         with Exit -> ());
        if !next < 0 then true (* total assignment, every clause satisfied *)
        else begin
          let v = !next in
          let branch b =
            assign.(v) <- b;
            let r = go () in
            assign.(v) <- 0;
            r
          in
          branch 1 || branch 2
        end
      end
    in
    List.iter (fun v -> assign.(v) <- 0) !trail;
    result
  in
  go ()

let brute nvars clauses =
  let n = 1 lsl nvars in
  let rec try_ i =
    if i >= n then None
    else begin
      let model = Array.init nvars (fun v -> (i lsr v) land 1 = 1) in
      if Solver.model_satisfies model clauses then Some model else try_ (i + 1)
    end
  in
  try_ 0

(* The (clause, blocker, binary flag) entries on the watch list of
   literal [k], visited when [k] becomes true. *)
let watch_entries (s : Solver.t) k =
  List.init s.Solver.watch_len.(k) (fun i ->
      let e = s.Solver.watches.(k).(i) in
      (Solver.entry_clause e, Solver.entry_blocker e, e land Solver.binary <> 0))

(* The clauses watching literal [l]'s falsification, i.e. visited when
   [lnot l] becomes true. *)
let watchers (s : Solver.t) (l : Solver.lit) =
  List.map (fun (c, _, _) -> c) (watch_entries s (Solver.lnot l))

(* Every clause in the arena, live or deleted, in arena order. *)
let arena_clauses (s : Solver.t) =
  let rec go c acc =
    if c >= s.Solver.arena_top then List.rev acc
    else go (c + Solver.hdr + Solver.clause_size s c) (c :: acc)
  in
  go 0 []

let clause_lits (s : Solver.t) c = Array.init (Solver.clause_size s c) (Solver.clause_lit s c)

(* pigeon i in hole j: var (holes * i + j) *)
let pigeonhole ~pigeons ~holes =
  let v i j = Solver.pos ((holes * i) + j) and nv i j = Solver.neg ((holes * i) + j) in
  let rows = List.init pigeons (fun i -> List.init holes (v i)) in
  let pairs =
    List.concat
      (List.init holes (fun j ->
           List.concat
             (List.init pigeons (fun i ->
                  List.init (pigeons - i - 1) (fun d -> [ nv i j; nv (i + d + 1) j ])))))
  in
  (pigeons * holes, rows @ pairs)

(* The solver's structural invariants, as left by a search; [None] when
   they all hold, else the first one broken.
   - each live clause is watched exactly twice, on the lists of its two
     watched literals, and a deleted one not at all;
   - each watch entry's blocker is a literal of its clause, and its
     binary flag is set exactly when the clause has two literals;
   - every watch and every reason points at the start of a live clause;
   - a reason's literal 0 is the literal its variable is assigned, and
     an unassigned variable has no reason;
   - the learned clauses carry the activity indices 0, 1, ... in arena
     order, [learnts] lists the live ones in that order, and
     [arena_dead] counts the deleted words. *)
let invariant_violation (s : Solver.t) : string option =
  let clauses = arena_clauses s in
  let starts = Hashtbl.create 64 in
  List.iter (fun c -> Hashtbl.replace starts c ()) clauses;
  let live c = Hashtbl.mem starts c && not (Solver.is_deleted s c) in
  let watched_on = Hashtbl.create 64 in
  let bad = ref None in
  let fail fmt = Printf.ksprintf (fun m -> if !bad = None then bad := Some m) fmt in
  Array.iteri
    (fun k _ ->
      List.iter
        (fun (c, blocker, bin) ->
          if not (live c) then fail "watch %d on list %d is not a live clause" c k
          else if not (Array.mem blocker (clause_lits s c)) then
            fail "watch %d on list %d has blocker %d, not one of its literals" c k blocker
          else if bin <> (Solver.clause_size s c = 2) then
            fail "watch %d on list %d: binary flag %b on a clause of %d literals" c k bin
              (Solver.clause_size s c);
          Hashtbl.add watched_on c k)
        (watch_entries s k))
    s.Solver.watches;
  let dead = ref 0 and next_act = ref 0 in
  List.iter
    (fun c ->
      let on = List.sort compare (Hashtbl.find_all watched_on c) in
      if Solver.is_deleted s c then begin
        dead := !dead + Solver.hdr + Solver.clause_size s c;
        if on <> [] then fail "deleted clause %d is watched" c
      end
      else begin
        let w =
          List.sort compare
            [ Solver.lnot (Solver.clause_lit s c 0); Solver.lnot (Solver.clause_lit s c 1) ]
        in
        if on <> w then
          fail "clause %d is watched %d times, not on its two literals" c (List.length on)
      end;
      let act = Solver.clause_act s c in
      if Solver.is_learned s c then begin
        if act <> !next_act then
          fail "learned clause %d has activity index %d, not %d" c act !next_act;
        incr next_act
      end
      else if act <> -1 then fail "problem clause %d has activity index %d" c act)
    clauses;
  if !next_act <> s.Solver.n_act then
    fail "%d activity slots for %d learned clauses" s.Solver.n_act !next_act;
  if !dead <> s.Solver.arena_dead then fail "arena_dead %d, counted %d" s.Solver.arena_dead !dead;
  let learned_live = List.filter (fun c -> Solver.is_learned s c && live c) clauses in
  if Array.to_list (Array.sub s.Solver.learnts 0 s.Solver.n_learnts) <> learned_live then
    fail "learnts is not the live learned clauses in arena order";
  Array.iteri
    (fun v r ->
      if r >= 0 then begin
        if not (live r) then fail "reason %d of var %d is not a live clause" r v
        else begin
          let l = Solver.clause_lit s r 0 in
          if Solver.var_of l <> v || Solver.value_lit s l <> 1 then
            fail "reason %d of var %d does not assert literal 0" r v
        end
      end
      else if r <> -1 then fail "var %d has reason %d" v r)
    s.Solver.reason;
  !bad

(* Solve [clauses] on a scoped instance; the verdict, the counters, and
   the invariants after the search. *)
let solve_checked ~nvars clauses =
  Solver.with_solver nvars @@ fun s ->
  let ok = List.for_all (fun c -> Solver.add_clause s (Array.of_list c)) clauses in
  let r = if ok then Solver.solve s else Solver.Unsat in
  (r, Solver.statistics s, invariant_violation s)

let unit_tests =
  [ Alcotest.test_case "trivially sat" `Quick (fun () ->
        match Solver.solve_clauses ~nvars:2 [ [ Solver.pos 0 ]; [ Solver.neg 1 ] ] with
        | Solver.Sat m ->
          Alcotest.(check bool) "v0" true m.(0);
          Alcotest.(check bool) "v1" false m.(1)
        | Solver.Unsat -> Alcotest.fail "should be sat");
    Alcotest.test_case "trivially unsat" `Quick (fun () ->
        match Solver.solve_clauses ~nvars:1 [ [ Solver.pos 0 ]; [ Solver.neg 0 ] ] with
        | Solver.Unsat -> ()
        | Solver.Sat _ -> Alcotest.fail "should be unsat");
    Alcotest.test_case "empty clause unsat" `Quick (fun () ->
        match Solver.solve_clauses ~nvars:1 [ [] ] with
        | Solver.Unsat -> ()
        | Solver.Sat _ -> Alcotest.fail "should be unsat");
    Alcotest.test_case "pigeonhole 3->2 unsat" `Quick (fun () ->
        (* pigeon i in hole j: var 2i+j, i<3, j<2 *)
        let v i j = Solver.pos ((2 * i) + j) in
        let nv i j = Solver.neg ((2 * i) + j) in
        let clauses =
          [ [ v 0 0; v 0 1 ]; [ v 1 0; v 1 1 ]; [ v 2 0; v 2 1 ] ]
          @ List.concat_map
              (fun j ->
                [ [ nv 0 j; nv 1 j ]; [ nv 0 j; nv 2 j ]; [ nv 1 j; nv 2 j ] ])
              [ 0; 1 ]
        in
        match Solver.solve_clauses ~nvars:6 clauses with
        | Solver.Unsat -> ()
        | Solver.Sat _ -> Alcotest.fail "pigeonhole should be unsat");
    Alcotest.test_case "watch lists survive a propagation conflict" `Quick (fun () ->
        (* Four clauses all watch ~x0.  Deciding x0 makes clause 1 unit
           (propagating x1), clause 2 a conflict, and leaves clauses 3-4
           as the unvisited tail of the watch vector — the compaction in
           [propagate] must copy that tail, not drop it. *)
        let s = Solver.create 4 in
        let ok =
          List.for_all
            (fun c -> Solver.add_clause s (Array.of_list c))
            [ [ Solver.neg 0; Solver.pos 1 ];
              [ Solver.neg 0; Solver.neg 1 ];
              [ Solver.neg 0; Solver.pos 2 ];
              [ Solver.neg 0; Solver.pos 3 ];
            ]
        in
        Alcotest.(check bool) "clauses accepted" true ok;
        let before = watchers s (Solver.neg 0) in
        Alcotest.(check int) "four clauses watch ~x0" 4 (List.length before);
        s.Solver.trail_lim.(0) <- s.Solver.trail_len;
        s.Solver.decision_level <- 1;
        Solver.enqueue s (Solver.pos 0) (-1);
        if Solver.propagate s < 0 then Alcotest.fail "expected a conflict";
        let after = watchers s (Solver.neg 0) in
        Alcotest.(check int) "watch list intact after conflict" 4 (List.length after);
        List.iter2
          (fun a b -> Alcotest.(check int) "same clause in the same slot" a b)
          before after);
    Alcotest.test_case "phase saving reproduces the model on re-solve" `Quick (fun () ->
        let s = Solver.create 6 in
        let clauses =
          [ [ Solver.pos 0; Solver.pos 1 ];
            [ Solver.neg 0; Solver.pos 2 ];
            [ Solver.neg 2; Solver.pos 3; Solver.neg 4 ];
            [ Solver.pos 4; Solver.pos 5 ];
            [ Solver.neg 1; Solver.neg 5 ];
          ]
        in
        let ok = List.for_all (fun c -> Solver.add_clause s (Array.of_list c)) clauses in
        Alcotest.(check bool) "clauses accepted" true ok;
        (match (Solver.solve s, Solver.solve s) with
        | Solver.Sat m1, Solver.Sat m2 ->
          Alcotest.(check bool) "first model valid" true (Solver.model_satisfies m1 clauses);
          Alcotest.(check (array bool)) "saved phases reproduce the model" m1 m2
        | _ -> Alcotest.fail "instance is satisfiable"));
    Alcotest.test_case "add_clause after a refutation keeps the trail consistent" `Quick
      (fun () ->
        let s = Solver.create 3 in
        Alcotest.(check bool) "x accepted" true (Solver.add_clause s [| Solver.pos 0 |]);
        Alcotest.(check bool) "!x refutes" false (Solver.add_clause s [| Solver.neg 0 |]);
        Alcotest.(check bool) "empty clause refutes" false (Solver.add_clause s [||]);
        ignore (Solver.add_clause s [| Solver.pos 1 |]);
        ignore (Solver.add_clause s [| Solver.neg 1 |]);
        ignore (Solver.add_clause s [| Solver.neg 2; Solver.neg 0 |]);
        (* every trail entry is the one assignment of its variable *)
        let seen = Array.make 3 false in
        for i = 0 to s.Solver.trail_len - 1 do
          let l = s.Solver.trail.(i) in
          let v = Solver.var_of l in
          Alcotest.(check bool) "assigned once" false seen.(v);
          seen.(v) <- true;
          Alcotest.(check bool) "trail matches the assignment" true
            (Solver.value_lit s l = 1)
        done;
        (* x, y, and !z (the x-falsified literal was dropped from the
           last clause, leaving the unit !z) *)
        Alcotest.(check int) "three assignments" 3 s.Solver.trail_len);
    Alcotest.test_case "per-call budget raises; the solver survives" `Quick (fun () ->
        (* pigeonhole needs at least one conflict to refute, so a
           zero-conflict budget deterministically trips *)
        let v i j = Solver.pos ((2 * i) + j) in
        let nv i j = Solver.neg ((2 * i) + j) in
        let s = Solver.create 6 in
        List.iter
          (fun c -> ignore (Solver.add_clause s (Array.of_list c)))
          ([ [ v 0 0; v 0 1 ]; [ v 1 0; v 1 1 ]; [ v 2 0; v 2 1 ] ]
          @ List.concat_map
              (fun j -> [ [ nv 0 j; nv 1 j ]; [ nv 0 j; nv 2 j ]; [ nv 1 j; nv 2 j ] ])
              [ 0; 1 ]);
        (match Solver.solve ~max_conflicts:0 s with
        | exception Solver.Budget_exceeded -> ()
        | Solver.Unsat -> Alcotest.fail "cannot refute pigeonhole with zero conflicts"
        | Solver.Sat _ -> Alcotest.fail "pigeonhole is unsat");
        match Solver.solve s with
        | Solver.Unsat -> ()
        | Solver.Sat _ -> Alcotest.fail "pigeonhole is unsat after recovery");
    Alcotest.test_case "a refutation ending on the conflict over the budget is Unsat" `Quick
      (fun () ->
        (* A refutation's last conflict is at level 0.  When that is the
           conflict which exceeds the budget, the call answers Unsat;
           under any smaller budget it raises, and the same instance,
           solved again, still refutes *)
        List.iter
          (fun (pigeons, holes) ->
            let nvars, php = pigeonhole ~pigeons ~holes in
            let fresh () =
              let s = Solver.create nvars in
              List.iter (fun c -> ignore (Solver.add_clause s (Array.of_list c))) php;
              s
            in
            let unsat s = match Solver.solve s with Solver.Unsat -> true | Solver.Sat _ -> false in
            let s = fresh () in
            Alcotest.(check bool) "unbudgeted refutation" true (unsat s);
            let total = s.Solver.conflicts in
            Alcotest.(check bool) "refuted by search" true (total > 1);
            for k = 0 to total - 1 do
              let s = fresh () in
              let label = Printf.sprintf "php %d->%d, budget %d" pigeons holes k in
              match Solver.solve ~max_conflicts:k s with
              | Solver.Unsat -> Alcotest.(check int) (label ^ " answers") (total - 1) k
              | Solver.Sat _ -> Alcotest.fail (label ^ ": pigeonhole is unsat")
              | exception Solver.Budget_exceeded ->
                Alcotest.(check bool) (label ^ " raises below the last conflict") true
                  (k < total - 1);
                Alcotest.(check bool) (label ^ " refutes when solved again") true (unsat s)
            done)
          [ (4, 3); (5, 4) ]);
    Alcotest.test_case "xor chain sat" `Quick (fun () ->
        (* x0 xor x1 = 1, x1 xor x2 = 1, x0 = 1 => x2 = 1 *)
        let xor1 a b =
          [ [ Solver.pos a; Solver.pos b ]; [ Solver.neg a; Solver.neg b ] ]
        in
        match
          Solver.solve_clauses ~nvars:3 ((xor1 0 1 @ xor1 1 2) @ [ [ Solver.pos 0 ] ])
        with
        | Solver.Sat m ->
          Alcotest.(check bool) "x2 follows" true m.(2);
          Alcotest.(check bool) "x1 follows" false m.(1)
        | Solver.Unsat -> Alcotest.fail "should be sat");
    Alcotest.test_case "two live instances never share an arena" `Quick (fun () ->
        let nvars, php = pigeonhole ~pigeons:4 ~holes:3 in
        let add s = List.iter (fun c -> ignore (Solver.add_clause s (Array.of_list c))) in
        (* warm a spare, then take it and a second arena at once *)
        ignore (Solver.solve_clauses ~nvars php);
        Solver.with_solver nvars (fun outer ->
            add outer php;
            Solver.with_solver 3 (fun inner ->
                Alcotest.(check bool) "distinct arenas" true
                  (outer.Solver.arena != inner.Solver.arena);
                add inner
                  [ [ Solver.pos 0; Solver.pos 1 ];
                    [ Solver.neg 0 ];
                    [ Solver.neg 1; Solver.pos 2 ];
                  ];
                match Solver.solve inner with
                | Solver.Sat m -> Alcotest.(check bool) "inner model" true m.(2)
                | Solver.Unsat -> Alcotest.fail "inner is sat");
            match Solver.solve outer with
            | Solver.Unsat -> ()
            | Solver.Sat _ -> Alcotest.fail "pigeonhole 4->3 is unsat"));
  ]

let random_cnf =
  QCheck2.Gen.(
    int_range 1 9 >>= fun nvars ->
    int_range 1 40 >>= fun nclauses ->
    let lit = map2 (fun v s -> if s then Solver.pos v else Solver.neg v) (int_bound (nvars - 1)) bool in
    let clause = list_size (int_range 1 4) lit in
    pair (return nvars) (list_size (return nclauses) clause))

(* Larger instances than [random_cnf]: past brute force's comfort zone
   but fine for the DPLL reference. *)
let random_cnf_large =
  QCheck2.Gen.(
    int_range 1 12 >>= fun nvars ->
    int_range 1 60 >>= fun nclauses ->
    let lit =
      map2 (fun v s -> if s then Solver.pos v else Solver.neg v) (int_bound (nvars - 1)) bool
    in
    let clause = list_size (int_range 1 5) lit in
    pair (return nvars) (list_size (return nclauses) clause))

(* A 0-5 literal clause over 4 vars, with duplicates and complementary
   pairs likely, after level-0 units on some of the vars. *)
let clause_after_units =
  QCheck2.Gen.(
    pair (list_repeat 4 (opt bool)) (list_size (int_range 0 5) (int_bound 7)))

let props =
  [ QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"add_clause normalises like the list reference" ~count:1000
         clause_after_units
         (fun (units, clause) ->
           let s = Solver.create 4 in
           List.iteri
             (fun v -> function
               | None -> ()
               | Some b -> ignore (Solver.add_clause s [| Solver.lit_of ~negated:(not b) v |]))
             units;
           (* the reference: sort, dedupe, drop literals false at level 0;
              a tautology is accepted and not stored *)
           let sorted = List.sort_uniq compare clause in
           let taut = List.exists (fun l -> List.mem (Solver.lnot l) sorted) sorted in
           let kept = List.filter (fun l -> Solver.value_lit s l <> 2) sorted in
           let stored0 = List.length (arena_clauses s) and trail0 = s.Solver.trail_len in
           let was_true = match kept with [ l ] -> Solver.value_lit s l = 1 | _ -> false in
           let ok = Solver.add_clause s (Array.of_list clause) in
           let stored = List.length (arena_clauses s) - stored0
           and enqueued = s.Solver.trail_len - trail0 in
           if taut then ok && stored = 0 && enqueued = 0
           else
             match kept with
             | [] -> (not ok) && stored = 0 && enqueued = 0
             | [ l ] ->
               ok && stored = 0
               && if was_true then enqueued = 0 else enqueued = 1 && s.Solver.trail.(trail0) = l
             | _ ->
               ok && stored = 1 && enqueued = 0
               && clause_lits s (List.nth (arena_clauses s) stored0) = Array.of_list kept));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"agrees with brute force" ~count:800 random_cnf
         (fun (nvars, clauses) ->
           match (Solver.solve_clauses ~nvars clauses, brute nvars clauses) with
           | Solver.Sat m, Some _ -> Solver.model_satisfies m clauses
           | Solver.Unsat, None -> true
           | Solver.Sat _, None | Solver.Unsat, Some _ -> false));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"learned clauses don't break repeat solving" ~count:100
         random_cnf
         (fun (nvars, clauses) ->
           let r1 = Solver.solve_clauses ~nvars clauses in
           let r2 = Solver.solve_clauses ~nvars clauses in
           match (r1, r2) with
           | Solver.Sat _, Solver.Sat _ | Solver.Unsat, Solver.Unsat -> true
           | _ -> false));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"agrees with the DPLL reference" ~count:300 random_cnf_large
         (fun (nvars, clauses) ->
           match Solver.solve_clauses ~nvars clauses with
           | Solver.Sat m -> Solver.model_satisfies m clauses && dpll nvars clauses
           | Solver.Unsat -> not (dpll nvars clauses)));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make
         ~name:"every live clause is watched exactly twice after solving" ~count:200
         random_cnf_large
         (fun (nvars, clauses) ->
           let _, _, bad = solve_checked ~nvars clauses in
           match bad with None -> true | Some m -> QCheck2.Test.fail_report m));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make
         ~name:"a reused arena does not change the search" ~count:200
         (QCheck2.Gen.pair random_cnf_large random_cnf)
         (fun ((nvars_a, a), (nvars_b, b)) ->
           (* B right after A reuses A's arena, leftovers and all; B after
              a trivial instance starts from a fresh one *)
           ignore (solve_checked ~nvars:nvars_a a);
           let after_a = solve_checked ~nvars:nvars_b b in
           Solver.spare := Solver.no_arena;
           ignore (solve_checked ~nvars:1 [ [ Solver.pos 0 ] ]);
           let after_trivial = solve_checked ~nvars:nvars_b b in
           after_a = after_trivial));
  ]

(* Instances long enough to reduce the learned DB and compact the arena
   several times.  Reduction starts at 2,000 learned clauses, far more
   than the random CNFs above ever learn. *)
let reduction_tests =
  let case name ~nvars clauses ~sat =
    Alcotest.test_case name `Quick (fun () ->
        let r, st, bad = solve_checked ~nvars clauses in
        (match (r, sat) with
        | Solver.Sat m, true ->
          Alcotest.(check bool) "model satisfies" true (Solver.model_satisfies m clauses)
        | Solver.Unsat, false -> ()
        | _ -> Alcotest.fail "wrong verdict");
        Alcotest.(check bool) "reduced more than once" true (st.Solver.st_db_reductions > 1);
        Alcotest.(check bool) "compacted more than once" true (st.Solver.st_arena_compactions > 1);
        Alcotest.(check (option string)) "invariants" None bad)
  in
  let nvars, php = pigeonhole ~pigeons:8 ~holes:7 in
  (* random 3-clauses, each satisfied by a hidden assignment *)
  let planted ~nvars ~nclauses seed =
    let st = Random.State.make [| seed |] in
    let hidden = Array.init nvars (fun _ -> Random.State.bool st) in
    let rec clause () =
      let c =
        List.init 3 (fun _ ->
            Solver.lit_of ~negated:(Random.State.bool st) (Random.State.int st nvars))
      in
      if Solver.model_satisfies hidden [ c ] then c else clause ()
    in
    List.init nclauses (fun _ -> clause ())
  in
  [ case "pigeonhole 8->7 reduces and compacts" ~nvars php ~sat:false;
    (* 1,280 clauses and seed 2: the core finds the model only after
       four reductions (1,260 clauses at seed 1 no longer reduce) *)
    case "planted 3-SAT (300 vars) reduces and compacts" ~nvars:300
      (planted ~nvars:300 ~nclauses:1280 2) ~sat:true;
    Alcotest.test_case "a learned clause of glue 2 or less survives reduce_db" `Quick (fun () ->
        (* four learned 3-clauses of equal activity: three of glue 2
           and one of glue 5.  Reduction drops half the database, worst
           first, but only the glue-5 clause may go *)
        let s = Solver.create 12 in
        s.Solver.learnt_buf <- Array.make 12 0;
        let learned =
          List.map
            (fun (glue, vars) ->
              List.iteri (fun i v -> s.Solver.learnt_buf.(i) <- Solver.pos v) vars;
              s.Solver.learnt_len <- 3;
              s.Solver.learnt_glue <- glue;
              (glue, clause_lits s (Solver.learn s)))
            [ (2, [ 0; 1; 2 ]); (2, [ 3; 4; 5 ]); (5, [ 6; 7; 8 ]); (2, [ 9; 10; 11 ]) ]
        in
        Solver.reduce_db s;
        Alcotest.(check int) "one reduction" 1 s.Solver.db_reductions;
        let live =
          List.filter_map
            (fun c -> if Solver.is_deleted s c then None else Some (clause_lits s c))
            (arena_clauses s)
        in
        List.iter
          (fun (glue, lits) ->
            Alcotest.(check bool)
              (Printf.sprintf "glue-%d clause kept" glue)
              (glue <= 2) (List.mem lits live))
          learned;
        Alcotest.(check (option string)) "invariants" None (invariant_violation s));
  ]

let () =
  Alcotest.run "sat"
    [ ("unit", unit_tests); ("properties", props); ("reduction", reduction_tests) ]
