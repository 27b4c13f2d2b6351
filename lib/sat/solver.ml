(* A CDCL SAT solver: two-watched-literal propagation over growable
   watch vectors, first-UIP clause learning, VSIDS branching through an
   indexed binary max-heap, phase saving, Luby restarts, learned-clause
   database reduction on a geometric schedule.

   This is the decision-procedure substrate for the refinement checker
   (the paper uses Z3 via Alive; the container is sealed, so we carry our
   own solver — see DESIGN.md section 9).  Literal encoding: variable
   [v >= 0] maps to literals [2v] (positive) and [2v+1] (negated).

   An instance is built, solved once, and dropped.  After an [Unsat]
   answer (or a [false] from [add_clause]) it must not be solved again:
   nothing records the refutation, so a second search could miss it.
   A call that exhausts its conflict budget, or answers [Sat], leaves
   the instance at level 0, ready for another call. *)

open Ub_support

type lit = int

let pos v : lit = 2 * v
let neg v : lit = (2 * v) + 1
let lit_of ?(negated = false) v = if negated then neg v else pos v
let var_of (l : lit) = l lsr 1
let is_neg (l : lit) = l land 1 = 1
let lnot (l : lit) = l lxor 1

type result = Sat of bool array | Unsat

(* Truth values in the trail: 0 unassigned, 1 true, 2 false (of the
   positive literal). *)

type clause = {
  lits : lit array; (* watched literals at positions 0 and 1 *)
  mutable activity : float;
  learned : bool;
  mutable deleted : bool; (* tombstone set by DB reduction *)
}

let dummy_clause = { lits = [||]; activity = 0.0; learned = false; deleted = true }

(* The watch vector of every literal nothing watches yet.  A solver is
   sized by every node of its circuit context, so most literals are
   never watched; they share this one empty vector, and [watch] gives a
   literal its own at the first push.  It must stay empty. *)
let unwatched : clause Vec.t = Vec.create dummy_clause

type t = {
  nvars : int;
  mutable clauses : clause list; (* original clauses, for debugging *)
  watches : clause Vec.t array; (* watch vectors indexed by literal, [unwatched] until used *)
  assign : int array; (* per var: 0 / 1 (true) / 2 (false) *)
  phase : bool array; (* saved polarity per var (last assigned value) *)
  level : int array; (* decision level per var *)
  reason : clause option array; (* antecedent clause per var *)
  trail : int array; (* assigned literals in order *)
  mutable trail_len : int;
  trail_lim : int array; (* trail length at each decision level *)
  mutable decision_level : int;
  mutable qhead : int; (* propagation queue head *)
  activity : float array; (* VSIDS per var *)
  mutable var_inc : float;
  heap : int array; (* binary max-heap of vars, ordered by activity *)
  heap_pos : int array; (* var -> index in heap, -1 when absent *)
  mutable heap_len : int;
  mutable cla_inc : float; (* learned-clause activity increment *)
  learnts : clause Vec.t; (* the learned-clause database *)
  mutable max_learnts : float; (* reduction threshold (geometric) *)
  seen : bool array; (* scratch for conflict analysis *)
  mutable conflicts : int;
  mutable propagations : int;
  mutable decisions : int;
  mutable num_clauses : int; (* problem clauses accepted by add_clause *)
  mutable learned_peak : int; (* peak size of the learned DB *)
  mutable db_reductions : int;
  mutable restarts : int;
}

let create nvars =
  { nvars;
    clauses = [];
    watches = Array.make (2 * nvars) unwatched;
    assign = Array.make nvars 0;
    phase = Array.make nvars false;
    level = Array.make nvars 0;
    reason = Array.make nvars None;
    trail = Array.make (max 1 nvars) 0;
    trail_len = 0;
    trail_lim = Array.make (max 1 nvars) 0;
    decision_level = 0;
    qhead = 0;
    activity = Array.make nvars 0.0;
    var_inc = 1.0;
    heap = Array.make (max 1 nvars) 0;
    heap_pos = Array.make (max 1 nvars) (-1);
    heap_len = 0;
    cla_inc = 1.0;
    learnts = Vec.create ~capacity:64 dummy_clause;
    max_learnts = 0.0;
    seen = Array.make nvars false;
    conflicts = 0;
    propagations = 0;
    decisions = 0;
    num_clauses = 0;
    learned_peak = 0;
    db_reductions = 0;
    restarts = 0;
  }

let value_lit (s : t) (l : lit) =
  (* 0 unassigned, 1 true, 2 false *)
  let a = s.assign.(var_of l) in
  if a = 0 then 0 else if is_neg l then 3 - a else a

(* ------------------------------------------------------------------ *)
(* VSIDS order heap: a binary max-heap on [activity], with positions    *)
(* tracked so a bumped var can sift up in place.                        *)
(* ------------------------------------------------------------------ *)

let heap_swap (s : t) i j =
  let vi = s.heap.(i) and vj = s.heap.(j) in
  s.heap.(i) <- vj;
  s.heap.(j) <- vi;
  s.heap_pos.(vi) <- j;
  s.heap_pos.(vj) <- i

let rec heap_sift_up (s : t) i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if s.activity.(s.heap.(i)) > s.activity.(s.heap.(parent)) then begin
      heap_swap s i parent;
      heap_sift_up s parent
    end
  end

let rec heap_sift_down (s : t) i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < s.heap_len && s.activity.(s.heap.(l)) > s.activity.(s.heap.(!best)) then best := l;
  if r < s.heap_len && s.activity.(s.heap.(r)) > s.activity.(s.heap.(!best)) then best := r;
  if !best <> i then begin
    heap_swap s i !best;
    heap_sift_down s !best
  end

let heap_insert (s : t) v =
  if s.heap_pos.(v) < 0 then begin
    s.heap.(s.heap_len) <- v;
    s.heap_pos.(v) <- s.heap_len;
    s.heap_len <- s.heap_len + 1;
    heap_sift_up s s.heap_pos.(v)
  end

let heap_pop (s : t) : int =
  let v = s.heap.(0) in
  s.heap_len <- s.heap_len - 1;
  s.heap_pos.(v) <- -1;
  if s.heap_len > 0 then begin
    let last = s.heap.(s.heap_len) in
    s.heap.(0) <- last;
    s.heap_pos.(last) <- 0;
    heap_sift_down s 0
  end;
  v

(* ------------------------------------------------------------------ *)
(* Activities                                                          *)
(* ------------------------------------------------------------------ *)

let bump_var (s : t) v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    (* uniform rescale preserves the heap order *)
    for i = 0 to s.nvars - 1 do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end;
  if s.heap_pos.(v) >= 0 then heap_sift_up s s.heap_pos.(v)

let decay_var_activity (s : t) = s.var_inc <- s.var_inc /. 0.95

let bump_clause (s : t) (c : clause) =
  c.activity <- c.activity +. s.cla_inc;
  if c.activity > 1e20 then begin
    Vec.iter (fun (c : clause) -> c.activity <- c.activity *. 1e-20) s.learnts;
    s.cla_inc <- s.cla_inc *. 1e-20
  end

let decay_clause_activity (s : t) = s.cla_inc <- s.cla_inc /. 0.999

(* ------------------------------------------------------------------ *)
(* Assignment                                                           *)
(* ------------------------------------------------------------------ *)

let enqueue (s : t) (l : lit) (reason : clause option) =
  let v = var_of l in
  s.assign.(v) <- (if is_neg l then 2 else 1);
  s.phase.(v) <- not (is_neg l);
  s.level.(v) <- s.decision_level;
  s.reason.(v) <- reason;
  s.trail.(s.trail_len) <- l;
  s.trail_len <- s.trail_len + 1

let watch (s : t) (c : clause) (l : lit) =
  (* watching literal l of c: insertion is keyed by (lnot l), the
     literal whose becoming true falsifies l and requires a visit *)
  let k = lnot l in
  if s.watches.(k) == unwatched then s.watches.(k) <- Vec.create dummy_clause;
  Vec.push s.watches.(k) c

(* Add a clause; returns false if the instance is already unsat at level
   0.  The clause is normalised in place: an insertion sort (clauses are
   short), then one forward scan that compacts the literals to the front
   of [lits].  Sorted as ints, a duplicate is adjacent to its copy and a
   complementary pair [2v], [2v+1] is adjacent too; the scan also drops
   literals false at level 0.  The kept literals stay in ascending
   order.  The solver takes ownership of [lits]: a stored clause may be
   [lits] itself, and propagation reorders it.

   [false] means the clause is falsified at level 0, so the instance is
   unsatisfiable.  The clause is then dropped, not stored or enqueued:
   only unassigned literals are ever enqueued, so the trail stays a
   consistent assignment and later calls remain safe. *)
let add_clause (s : t) (lits : lit array) : bool =
  let n = Array.length lits in
  for i = 1 to n - 1 do
    let l = lits.(i) in
    let j = ref i in
    while !j > 0 && lits.(!j - 1) > l do
      lits.(!j) <- lits.(!j - 1);
      decr j
    done;
    lits.(!j) <- l
  done;
  let taut = ref false in
  let m = ref 0 in
  for i = 0 to n - 1 do
    let l = lits.(i) in
    if i > 0 && lits.(i - 1) = l lxor 1 then taut := true;
    if (i = 0 || lits.(i - 1) <> l)
       (* drop literals false at level 0 *)
       && not (value_lit s l = 2 && s.level.(var_of l) = 0)
    then begin
      (* m <= i, and a write at index i stores lits.(i) itself, so the
         next iteration still reads sorted lits.(i) *)
      lits.(!m) <- l;
      incr m
    end
  done;
  if !taut then true
  else begin
    match !m with
    | 0 -> false
    | 1 ->
      let l = lits.(0) in
      (match value_lit s l with
      | 1 -> true
      | 2 -> false
      | _ ->
        s.num_clauses <- s.num_clauses + 1;
        enqueue s l None;
        true)
    | m ->
      s.num_clauses <- s.num_clauses + 1;
      let lits = if m = n then lits else Array.sub lits 0 m in
      let c = { lits; activity = 0.0; learned = false; deleted = false } in
      s.clauses <- c :: s.clauses;
      watch s c lits.(0);
      watch s c lits.(1);
      true
  end

(* Propagate until fixpoint; returns the conflicting clause if any.
   Watch vectors are compacted in place: a clause keeps its slot unless
   it found a new watch (it moved lists) or was deleted by DB reduction.
   On conflict the unvisited tail is preserved verbatim, so watch lists
   survive conflicts exactly. *)
let propagate (s : t) : clause option =
  let conflict = ref None in
  while !conflict = None && s.qhead < s.trail_len do
    let l = s.trail.(s.qhead) in
    s.qhead <- s.qhead + 1;
    s.propagations <- s.propagations + 1;
    (* literal l became true; visit clauses watching (lnot l) *)
    let ws = s.watches.(l) in
    let n = Vec.length ws in
    let j = ref 0 in
    let i = ref 0 in
    let falsified = lnot l in
    while !i < n do
      let c = Vec.get ws !i in
      incr i;
      if not c.deleted then begin
        let lits = c.lits in
        (* ensure the falsified literal is at position 1 *)
        if lits.(0) = falsified then begin
          lits.(0) <- lits.(1);
          lits.(1) <- falsified
        end;
        if value_lit s lits.(0) = 1 then begin
          (* clause already satisfied; keep watching *)
          Vec.set ws !j c;
          incr j
        end
        else begin
          (* look for a new watch *)
          let len = Array.length lits in
          let found = ref false in
          let k = ref 2 in
          while (not !found) && !k < len do
            if value_lit s lits.(!k) <> 2 then begin
              let w = lits.(!k) in
              lits.(!k) <- lits.(1);
              lits.(1) <- w;
              watch s c w;
              found := true
            end;
            incr k
          done;
          if not !found then begin
            (* unit or conflict: stays on this watch list *)
            Vec.set ws !j c;
            incr j;
            match value_lit s lits.(0) with
            | 2 ->
              conflict := Some c;
              (* keep the unvisited tail on this list untouched *)
              while !i < n do
                Vec.set ws !j (Vec.get ws !i);
                incr j;
                incr i
              done
            | 0 -> enqueue s lits.(0) (Some c)
            | _ -> ()
          end
        end
      end
    done;
    Vec.shrink ws !j
  done;
  !conflict

(* First-UIP conflict analysis.  Returns (learned clause, backtrack
   level); learned.(0) is the asserting literal. *)
let analyze (s : t) (confl : clause) : lit array * int =
  let learned = ref [] in
  let counter = ref 0 in
  let p = ref (-1) in
  (* -1 marks "use all literals of confl" on first iteration *)
  let confl = ref (Some confl) in
  let idx = ref (s.trail_len - 1) in
  let continue_ = ref true in
  while !continue_ do
    (match !confl with
    | None -> assert false
    | Some c ->
      if c.learned then bump_clause s c;
      Array.iter
        (fun q ->
          if q <> !p then begin
            let v = var_of q in
            if (not s.seen.(v)) && s.level.(v) > 0 then begin
              s.seen.(v) <- true;
              bump_var s v;
              if s.level.(v) >= s.decision_level then incr counter
              else learned := q :: !learned
            end
          end)
        c.lits);
    (* find next literal on trail that is marked *)
    while not s.seen.(var_of s.trail.(!idx)) do
      decr idx
    done;
    let q = s.trail.(!idx) in
    let v = var_of q in
    s.seen.(v) <- false;
    decr counter;
    decr idx;
    if !counter = 0 then begin
      (* q is the first UIP *)
      learned := lnot q :: !learned;
      continue_ := false
    end
    else begin
      p := q;
      confl := s.reason.(v)
    end
  done;
  let arr = Array.of_list !learned in
  (* move asserting literal (lnot of UIP) to front: it is the head *)
  let n = Array.length arr in
  (* asserting literal is the last added: find it — it is the only one at
     current decision level *)
  let ai = ref 0 in
  for i = 0 to n - 1 do
    if s.level.(var_of arr.(i)) = s.decision_level then ai := i
  done;
  let tmp = arr.(0) in
  arr.(0) <- arr.(!ai);
  arr.(!ai) <- tmp;
  (* backtrack level: max level among the rest *)
  let blevel = ref 0 in
  let bi = ref 1 in
  for i = 1 to n - 1 do
    if s.level.(var_of arr.(i)) > !blevel then begin
      blevel := s.level.(var_of arr.(i));
      bi := i
    end
  done;
  if n > 1 then begin
    let tmp = arr.(1) in
    arr.(1) <- arr.(!bi);
    arr.(!bi) <- tmp
  end;
  (* clear seen flags *)
  Array.iter (fun l -> s.seen.(var_of l) <- false) arr;
  (arr, !blevel)

let backtrack (s : t) (level : int) =
  if s.decision_level > level then begin
    for i = s.trail_len - 1 downto s.trail_lim.(level) do
      let v = var_of s.trail.(i) in
      s.assign.(v) <- 0;
      s.reason.(v) <- None;
      heap_insert s v
    done;
    s.trail_len <- s.trail_lim.(level);
    s.qhead <- s.trail_len;
    s.decision_level <- level
  end

(* A learned clause is locked while it is the antecedent of an
   assignment on the trail; locked clauses are never reduced away. *)
let locked (s : t) (c : clause) =
  Array.length c.lits > 0
  &&
  match s.reason.(var_of c.lits.(0)) with Some r -> r == c | None -> false

(* Learned-DB reduction: drop the low-activity half (sparing locked and
   binary clauses), then compact every watch vector.  Called on a
   geometric schedule: [max_learnts] grows 1.2x per reduction, so the
   DB stays bounded while long refutations keep their useful lemmas. *)
let reduce_db (s : t) =
  s.db_reductions <- s.db_reductions + 1;
  let n = Vec.length s.learnts in
  let arr = Array.init n (fun i -> Vec.get s.learnts i) in
  Array.sort (fun (a : clause) b -> compare a.activity b.activity) arr;
  let to_drop = ref (n / 2) in
  Array.iter
    (fun c ->
      if !to_drop > 0 && (not (locked s c)) && Array.length c.lits > 2 then begin
        c.deleted <- true;
        decr to_drop
      end)
    arr;
  Vec.filter_in_place (fun c -> not c.deleted) s.learnts;
  Array.iter (fun ws -> Vec.filter_in_place (fun c -> not c.deleted) ws) s.watches;
  s.max_learnts <- s.max_learnts *. 1.2

let learn (s : t) (lits : lit array) : clause =
  let c = { lits; activity = 0.0; learned = true; deleted = false } in
  Vec.push s.learnts c;
  if Vec.length s.learnts > s.learned_peak then s.learned_peak <- Vec.length s.learnts;
  bump_clause s c;
  watch s c lits.(0);
  watch s c lits.(1);
  c

(* Phase-saved branching: pick the highest-activity unassigned variable
   and assign it its last saved polarity (initially false, matching the
   zeros oracle bias). *)
let pick_branch_var (s : t) : int option =
  let rec go () =
    if s.heap_len = 0 then None
    else begin
      let v = heap_pop s in
      if s.assign.(v) <> 0 then go () else Some v
    end
  in
  go ()

(* Luby sequence for restarts. *)
let rec luby i =
  (* find k with 2^k - 1 = i *)
  let rec pow2 k = if k = 0 then 1 else 2 * pow2 (k - 1) in
  let rec find_k k = if pow2 k - 1 >= i then k else find_k (k + 1) in
  let k = find_k 1 in
  if pow2 k - 1 = i then pow2 (k - 1) else luby (i - pow2 (k - 1) + 1)

exception Budget_exceeded

(* Solve the clauses added so far.  The conflict budget is per CALL,
   not per solver lifetime: the counter baseline is captured on entry,
   so a call after [Budget_exceeded] gets the full budget again. *)
let solve ?(max_conflicts = max_int) (s : t) : result =
  let conflicts0 = s.conflicts in
  for v = 0 to s.nvars - 1 do
    if s.assign.(v) = 0 then heap_insert s v
  done;
  if s.max_learnts < Float.max 2000.0 (float_of_int s.num_clauses) then
    s.max_learnts <- Float.max 2000.0 (float_of_int s.num_clauses);
  let restart_num = ref 0 in
  let result = ref None in
  (try
     (* top-level propagation of units added by add_clause *)
     (match propagate s with Some _ -> result := Some Unsat | None -> ());
     while !result = None do
       incr restart_num;
       let budget = 100 * luby !restart_num in
       let local_conflicts = ref 0 in
       (try
          while !result = None do
            match propagate s with
            | Some confl ->
              s.conflicts <- s.conflicts + 1;
              incr local_conflicts;
              if s.conflicts - conflicts0 > max_conflicts then raise Budget_exceeded;
              if s.decision_level = 0 then begin
                result := Some Unsat;
                raise Exit
              end;
              let learned, blevel = analyze s confl in
              backtrack s blevel;
              decay_var_activity s;
              decay_clause_activity s;
              if Array.length learned = 1 then enqueue s learned.(0) None
              else begin
                let c = learn s learned in
                enqueue s learned.(0) (Some c)
              end;
              if float_of_int (Vec.length s.learnts) >= s.max_learnts then reduce_db s;
              if !local_conflicts >= budget then begin
                (* restart *)
                s.restarts <- s.restarts + 1;
                backtrack s 0;
                raise Exit
              end
            | None -> (
              match pick_branch_var s with
              | None ->
                (* full assignment: SAT *)
                result := Some (Sat (Array.init s.nvars (fun v -> s.assign.(v) = 1)));
                raise Exit
              | Some v ->
                s.decisions <- s.decisions + 1;
                s.trail_lim.(s.decision_level) <- s.trail_len;
                s.decision_level <- s.decision_level + 1;
                enqueue s (lit_of ~negated:(not s.phase.(v)) v) None)
          done
        with Exit -> ())
     done
   with Budget_exceeded ->
     backtrack s 0;
     raise Budget_exceeded);
  backtrack s 0;
  match !result with Some r -> r | None -> assert false

(* One-shot convenience: clauses as lists of literals. *)
let solve_clauses ?max_conflicts ~nvars (clauses : lit list list) : result =
  let s = create nvars in
  let ok = List.for_all (fun c -> add_clause s (Array.of_list c)) clauses in
  if not ok then Unsat else solve ?max_conflicts s

(* Check a model against clauses (used by tests and as a runtime
   self-check). *)
let model_satisfies (model : bool array) (clauses : lit list list) =
  List.for_all
    (List.exists (fun l ->
         let v = var_of l in
         if is_neg l then not model.(v) else model.(v)))
    clauses

(* Full counters, for the solver benchmark harness. *)
type statistics = {
  st_conflicts : int;
  st_decisions : int;
  st_propagations : int;
  st_clauses : int; (* problem clauses accepted by add_clause *)
  st_learned_peak : int; (* peak size of the learned-clause DB *)
  st_db_reductions : int;
  st_restarts : int;
}

let statistics s =
  { st_conflicts = s.conflicts;
    st_decisions = s.decisions;
    st_propagations = s.propagations;
    st_clauses = s.num_clauses;
    st_learned_peak = s.learned_peak;
    st_db_reductions = s.db_reductions;
    st_restarts = s.restarts;
  }
