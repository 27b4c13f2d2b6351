(* A CDCL SAT solver: two-watched-literal propagation with blocker
   literals and binary clauses decided from their watch entries,
   first-UIP clause learning, VSIDS branching through an indexed binary
   max-heap, phase saving, Luby restarts, and learned-clause reduction
   on a geometric schedule, ranked by glue, then activity.  Clauses live
   in one flat int arena outside the OCaml heap, and every clause
   reference is an int offset into it.  The assignment is one byte per
   literal.  A new instance allocates only per-variable arrays (bytes
   where a byte suffices) and empty watch vectors; conflict analysis
   allocates its scratch at the first conflict.

   This is the decision-procedure substrate for the refinement checker
   (the paper uses Z3 via Alive; the container is sealed, so we carry our
   own solver — see DESIGN.md section 9).  Literal encoding: variable
   [v >= 0] maps to literals [2v] (positive) and [2v+1] (negated).

   An instance is built, solved once, and dropped; [with_solver] scopes
   it and hands its arena on to the next instance.  After an [Unsat]
   answer (or a [false] from [add_clause]) it must not be solved again:
   nothing records the refutation, so a second search could miss it.
   A call that exhausts its conflict budget, or answers [Sat], leaves
   the instance at level 0, ready for another call. *)

type lit = int

let pos v : lit = 2 * v
let neg v : lit = (2 * v) + 1
let lit_of ?(negated = false) v = if negated then neg v else pos v
let var_of (l : lit) = l lsr 1
let is_neg (l : lit) = l land 1 = 1
let lnot (l : lit) = l lxor 1

type result = Sat of bool array | Unsat

(* ------------------------------------------------------------------ *)
(* The clause arena                                                    *)
(* ------------------------------------------------------------------ *)

(* A clause at offset [c] is a header of [hdr] words followed by its
   literals, watched ones at positions 0 and 1:

     c+0  size (number of literals)
     c+1  flags: [f_learned], [f_deleted]; during [compact], the
          clause's new offset shifted left by 2 above them
     c+2  index of a learned clause's activity in [cla_act], else -1
     c+3  literal 0, ...

   The arena is an int Bigarray, not an [int array]: a custom block the
   GC never scans, whose size does not count towards the major heap
   that the GC's space overhead multiplies.  That is what lets one
   arena per process be kept and reused (see [take_arena]). *)
type arena = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let hdr = 3
let f_learned = 1
let f_deleted = 2

let new_arena words : arena = Bigarray.Array1.create Bigarray.int Bigarray.c_layout words

(* The arena of a released instance (so any later use fails its bounds
   check), and the empty spare. *)
let no_arena = new_arena 0

(* The arena the last released instance handed back, for the next
   [create].  Every query builds a fresh instance, so a fresh arena per
   query would be allocated and freed thousands of times a second. *)
let spare = ref no_arena

(* Nothing may allocate between reading [spare] and clearing it, so no
   signal handler or thread switch can hand the same arena out twice. *)
let take_arena () : arena =
  let a = !spare in
  spare := no_arena;
  if Bigarray.Array1.dim a > 0 then a else new_arena 4096

type t = {
  nvars : int;
  mutable arena : arena;
  mutable arena_top : int; (* words in use; the next clause goes here *)
  mutable arena_dead : int; (* words of deleted clauses not yet compacted away *)
  mutable cla_act : float array; (* learned-clause activities, by header index *)
  mutable cla_glue : int array;
      (* learned-clause glue (the number of decision levels among its
         literals when learned), by the same index *)
  mutable n_act : int; (* activity slots in use *)
  watches : int array array;
      (* clauses to visit when a literal becomes true, by literal, one
         [entry] word each; [||] until the literal is first watched,
         since a solver is sized by every node of its circuit context
         and most are never watched *)
  watch_len : int array; (* live prefix of each watch vector *)
  value : Bytes.t;
      (* per literal: 0 unassigned, 1 true, 2 false; a byte each, and
         the only record of the assignment *)
  phase : Bytes.t; (* saved polarity per var (last assigned value): 1 true, 0 false *)
  level : int array; (* decision level per var *)
  reason : int array; (* antecedent clause per var, -1 for none *)
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
  mutable learnts : int array; (* the learned-clause database, in insertion order *)
  mutable n_learnts : int;
  mutable max_learnts : float; (* reduction threshold (geometric) *)
  mutable seen : Bytes.t;
      (* scratch for conflict analysis, per var (and per level for the
         glue); like [learnt_buf], allocated at the first conflict, since
         most instances never have one *)
  mutable learnt_buf : int array; (* [analyze]'s learned clause *)
  mutable learnt_len : int;
  mutable learnt_glue : int; (* its glue *)
  mutable conflicts : int;
  mutable propagations : int;
  mutable decisions : int;
  mutable num_clauses : int; (* problem clauses accepted by add_clause *)
  mutable learned_peak : int; (* peak size of the learned DB *)
  mutable db_reductions : int;
  mutable arena_compactions : int;
  mutable restarts : int;
}

let create nvars =
  { nvars;
    arena = take_arena ();
    arena_top = 0;
    arena_dead = 0;
    cla_act = [||];
    cla_glue = [||];
    n_act = 0;
    watches = Array.make (2 * nvars) [||];
    watch_len = Array.make (2 * nvars) 0;
    value = Bytes.make (2 * nvars) '\000';
    phase = Bytes.make nvars '\000';
    level = Array.make nvars 0;
    reason = Array.make nvars (-1);
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
    learnts = [||];
    n_learnts = 0;
    max_learnts = 0.0;
    seen = Bytes.empty;
    learnt_buf = [||];
    learnt_len = 0;
    learnt_glue = 0;
    conflicts = 0;
    propagations = 0;
    decisions = 0;
    num_clauses = 0;
    learned_peak = 0;
    db_reductions = 0;
    arena_compactions = 0;
    restarts = 0;
  }

(* Hand the arena on to the next instance; [s] must not be used again
   (its clause references now fail their bounds checks).  The larger
   arena is kept when two instances were live at once. *)
let release (s : t) =
  let a = s.arena in
  s.arena <- no_arena;
  s.arena_top <- 0;
  if Bigarray.Array1.dim a > Bigarray.Array1.dim !spare then spare := a

(* [f] on a fresh instance whose arena is handed back when [f] returns
   or raises. *)
let with_solver nvars (f : t -> 'a) : 'a =
  let s = create nvars in
  Fun.protect ~finally:(fun () -> release s) (fun () -> f s)

let clause_size (s : t) c = s.arena.{c}
let clause_lit (s : t) c i = s.arena.{c + hdr + i}
let clause_act (s : t) c = s.arena.{c + 2}
let is_learned (s : t) c = s.arena.{c + 1} land f_learned <> 0
let is_deleted (s : t) c = s.arena.{c + 1} land f_deleted <> 0

(* Store the first [n] literals of [lits] as a new clause; returns its
   reference.  The arena doubles when full. *)
let new_clause (s : t) (lits : int array) n ~learned : int =
  let need = hdr + n in
  let dim = Bigarray.Array1.dim s.arena in
  if s.arena_top + need > dim then begin
    let a = new_arena (max (2 * dim) (s.arena_top + need)) in
    Bigarray.Array1.blit
      (Bigarray.Array1.sub s.arena 0 s.arena_top)
      (Bigarray.Array1.sub a 0 s.arena_top);
    s.arena <- a
  end;
  let a = s.arena and c = s.arena_top in
  a.{c} <- n;
  if learned then begin
    if s.n_act = Array.length s.cla_act then begin
      let size = max 64 (2 * s.n_act) in
      let act = Array.make size 0.0 and glue = Array.make size 0 in
      Array.blit s.cla_act 0 act 0 s.n_act;
      Array.blit s.cla_glue 0 glue 0 s.n_act;
      s.cla_act <- act;
      s.cla_glue <- glue
    end;
    s.cla_act.(s.n_act) <- 0.0;
    s.cla_glue.(s.n_act) <- s.learnt_glue;
    a.{c + 1} <- f_learned;
    a.{c + 2} <- s.n_act;
    s.n_act <- s.n_act + 1
  end
  else begin
    a.{c + 1} <- 0;
    a.{c + 2} <- -1
  end;
  for i = 0 to n - 1 do
    a.{c + hdr + i} <- lits.(i)
  done;
  s.arena_top <- c + need;
  c

(* 0 unassigned, 1 true, 2 false *)
let value_lit (s : t) (l : lit) = Bytes.get_uint8 s.value l

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

let bump_clause (s : t) c =
  let i = s.arena.{c + 2} in
  s.cla_act.(i) <- s.cla_act.(i) +. s.cla_inc;
  if s.cla_act.(i) > 1e20 then begin
    for k = 0 to s.n_learnts - 1 do
      let j = s.arena.{s.learnts.(k) + 2} in
      s.cla_act.(j) <- s.cla_act.(j) *. 1e-20
    done;
    s.cla_inc <- s.cla_inc *. 1e-20
  end

let decay_clause_activity (s : t) = s.cla_inc <- s.cla_inc /. 0.999

(* ------------------------------------------------------------------ *)
(* Assignment                                                           *)
(* ------------------------------------------------------------------ *)

let enqueue (s : t) (l : lit) (reason : int) =
  let v = var_of l in
  Bytes.set_uint8 s.value l 1;
  Bytes.set_uint8 s.value (lnot l) 2;
  Bytes.set_uint8 s.phase v (if is_neg l then 0 else 1);
  s.level.(v) <- s.decision_level;
  s.reason.(v) <- reason;
  s.trail.(s.trail_len) <- l;
  s.trail_len <- s.trail_len + 1

(* A watch entry is one word: the clause in bits 32 and up, a blocker
   literal in bits 1-31, and in bit 0 the flag of a binary clause,
   whose blocker is its other literal.  So an entry costs what a bare
   clause reference did, and the arena may reach 2^30 words. *)
let binary = 1
let entry c ~(blocker : lit) ~bin = (c lsl 32) lor (blocker lsl 1) lor if bin then binary else 0
let entry_clause e = e lsr 32
let entry_blocker e = (e lsr 1) land 0x7FFF_FFFF

(* Watch literal [l] of [c], with [blocker], another literal of [c]:
   while the blocker is true the clause is satisfied, and [propagate]
   passes it by without reading the arena.  A binary clause's blocker
   is its other literal, so its entry alone propagates it.  Insertion
   is keyed by (lnot l), the literal whose becoming true falsifies l
   and requires a visit. *)
let watch (s : t) c (l : lit) ~(blocker : lit) =
  let k = lnot l in
  let ws = s.watches.(k) and n = s.watch_len.(k) in
  let ws =
    if n < Array.length ws then ws
    else begin
      let grown = Array.make (max 4 (2 * n)) 0 in
      Array.blit ws 0 grown 0 n;
      s.watches.(k) <- grown;
      grown
    end
  in
  ws.(n) <- entry c ~blocker ~bin:(s.arena.{c} = 2);
  s.watch_len.(k) <- n + 1

(* Add a clause; returns false if the instance is already unsat at level
   0.  The clause is normalised in place: an insertion sort (clauses are
   short), then one forward scan that compacts the literals to the front
   of [lits].  Sorted as ints, a duplicate is adjacent to its copy and a
   complementary pair [2v], [2v+1] is adjacent too; the scan also drops
   literals false at level 0.  The kept literals stay in ascending
   order, and are copied into the arena.

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
        enqueue s l (-1);
        true)
    | m ->
      s.num_clauses <- s.num_clauses + 1;
      let c = new_clause s lits m ~learned:false in
      watch s c lits.(0) ~blocker:lits.(1);
      watch s c lits.(1) ~blocker:lits.(0);
      true
  end

(* Propagate until fixpoint; returns the conflicting clause, or -1.
   Watch vectors are compacted in place: a clause keeps its slot unless
   it found a new watch (it moved lists).  An entry whose blocker is
   true is kept without reading the clause; otherwise a true other
   watched literal becomes the entry's blocker.  A binary entry is
   unit or a conflict as soon as its blocker is not true; a clause it
   implies gets the implied literal at position 0 first, as every
   reason has.  On conflict the unvisited tail is preserved verbatim,
   so watch lists survive conflicts exactly.  Nothing here grows the
   arena, so [a] stays valid. *)
let propagate (s : t) : int =
  let a = s.arena in
  let conflict = ref (-1) in
  while !conflict < 0 && s.qhead < s.trail_len do
    let l = s.trail.(s.qhead) in
    s.qhead <- s.qhead + 1;
    s.propagations <- s.propagations + 1;
    (* literal l became true; visit clauses watching (lnot l).  [watch]
       below pushes onto other literals' vectors only (the new watch is
       not false, and lnot l is), so [ws] is not reallocated under us. *)
    let ws = s.watches.(l) in
    let n = s.watch_len.(l) in
    let j = ref 0 in
    let i = ref 0 in
    let falsified = lnot l in
    while !i < n do
      let e = ws.(!i) in
      let blocker = entry_blocker e in
      incr i;
      if value_lit s blocker = 1 then begin
        (* satisfied by its blocker; keep watching *)
        ws.(!j) <- e;
        incr j
      end
      else if e land binary <> 0 then begin
        let c = entry_clause e in
        ws.(!j) <- e;
        incr j;
        if value_lit s blocker = 2 then begin
          conflict := c;
          (* keep the unvisited tail on this list untouched; the copy is
             inline, as below, since a closure over [i] and [j] would
             box them in the hot loop *)
          while !i < n do
            ws.(!j) <- ws.(!i);
            incr j;
            incr i
          done
        end
        else begin
          a.{c + hdr} <- blocker;
          a.{c + hdr + 1} <- falsified;
          enqueue s blocker c
        end
      end
      else begin
        let c = entry_clause e in
        let lits = c + hdr in
        (* ensure the falsified literal is at position 1 *)
        if a.{lits} = falsified then begin
          a.{lits} <- a.{lits + 1};
          a.{lits + 1} <- falsified
        end;
        let first = a.{lits} in
        if first <> blocker && value_lit s first = 1 then begin
          (* satisfied by the other watch, the better blocker *)
          ws.(!j) <- entry c ~blocker:first ~bin:false;
          incr j
        end
        else begin
          (* look for a new watch *)
          let len = a.{c} in
          let k = ref 2 in
          while !k < len && value_lit s a.{lits + !k} = 2 do
            incr k
          done;
          if !k < len then begin
            let w = a.{lits + !k} in
            a.{lits + !k} <- a.{lits + 1};
            a.{lits + 1} <- w;
            watch s c w ~blocker:first
          end
          else begin
            (* unit or conflict: stays on this watch list *)
            ws.(!j) <- entry c ~blocker:first ~bin:false;
            incr j;
            match value_lit s first with
            | 2 ->
              conflict := c;
              (* keep the unvisited tail on this list untouched *)
              while !i < n do
                ws.(!j) <- ws.(!i);
                incr j;
                incr i
              done
            | 0 -> enqueue s first c
            | _ -> ()
          end
        end
      end
    done;
    s.watch_len.(l) <- !j
  done;
  !conflict

(* First-UIP conflict analysis.  Leaves the learned clause in
   [learnt_buf.(0 .. learnt_len-1)], asserting literal first, and its
   glue in [learnt_glue], and returns the backtrack level.  The literal
   order is the one a list built by consing would give: the asserting
   literal, then the others latest-found first. *)
let analyze (s : t) (confl : int) : int =
  if Bytes.length s.seen = 0 then begin
    s.seen <- Bytes.make (s.nvars + 1) '\000';
    s.learnt_buf <- Array.make (max 1 s.nvars) 0
  end;
  let a = s.arena in
  let buf = s.learnt_buf in
  let n = ref 1 (* slot 0 waits for the asserting literal *) in
  let counter = ref 0 in
  let p = ref (-1) in
  (* -1 marks "use all literals of confl" on first iteration *)
  let confl = ref confl in
  let idx = ref (s.trail_len - 1) in
  let continue_ = ref true in
  while !continue_ do
    let c = !confl in
    assert (c >= 0);
    if a.{c + 1} land f_learned <> 0 then bump_clause s c;
    for k = c + hdr to c + hdr + a.{c} - 1 do
      let q = a.{k} in
      if q <> !p then begin
        let v = var_of q in
        if Bytes.get_uint8 s.seen v = 0 && s.level.(v) > 0 then begin
          Bytes.set_uint8 s.seen v 1;
          bump_var s v;
          if s.level.(v) >= s.decision_level then incr counter
          else begin
            buf.(!n) <- q;
            incr n
          end
        end
      end
    done;
    (* find next literal on trail that is marked *)
    while Bytes.get_uint8 s.seen (var_of s.trail.(!idx)) = 0 do
      decr idx
    done;
    let q = s.trail.(!idx) in
    let v = var_of q in
    Bytes.set_uint8 s.seen v 0;
    decr counter;
    decr idx;
    if !counter = 0 then begin
      (* q is the first UIP *)
      buf.(0) <- lnot q;
      continue_ := false
    end
    else begin
      p := q;
      confl := s.reason.(v)
    end
  done;
  let n = !n in
  (* latest-found first *)
  let lo = ref 1 and hi = ref (n - 1) in
  while !lo < !hi do
    let tmp = buf.(!lo) in
    buf.(!lo) <- buf.(!hi);
    buf.(!hi) <- tmp;
    incr lo;
    decr hi
  done;
  (* asserting literal to the front: the only one at the current
     decision level *)
  let ai = ref 0 in
  for i = 0 to n - 1 do
    if s.level.(var_of buf.(i)) = s.decision_level then ai := i
  done;
  let tmp = buf.(0) in
  buf.(0) <- buf.(!ai);
  buf.(!ai) <- tmp;
  (* backtrack level: max level among the rest *)
  let blevel = ref 0 in
  let bi = ref 1 in
  for i = 1 to n - 1 do
    if s.level.(var_of buf.(i)) > !blevel then begin
      blevel := s.level.(var_of buf.(i));
      bi := i
    end
  done;
  if n > 1 then begin
    let tmp = buf.(1) in
    buf.(1) <- buf.(!bi);
    buf.(!bi) <- tmp
  end;
  (* clear seen flags, then mark each literal's level in [seen] to
     count the distinct ones (a level is at most [nvars]) *)
  for i = 0 to n - 1 do
    Bytes.set_uint8 s.seen (var_of buf.(i)) 0
  done;
  let glue = ref 0 in
  for i = 0 to n - 1 do
    let lv = s.level.(var_of buf.(i)) in
    if Bytes.get_uint8 s.seen lv = 0 then begin
      Bytes.set_uint8 s.seen lv 1;
      incr glue
    end
  done;
  for i = 0 to n - 1 do
    Bytes.set_uint8 s.seen s.level.(var_of buf.(i)) 0
  done;
  s.learnt_glue <- !glue;
  s.learnt_len <- n;
  !blevel

let backtrack (s : t) (level : int) =
  if s.decision_level > level then begin
    for i = s.trail_len - 1 downto s.trail_lim.(level) do
      let l = s.trail.(i) in
      let v = var_of l in
      Bytes.set_uint8 s.value l 0;
      Bytes.set_uint8 s.value (lnot l) 0;
      s.reason.(v) <- -1;
      heap_insert s v
    done;
    s.trail_len <- s.trail_lim.(level);
    s.qhead <- s.trail_len;
    s.decision_level <- level
  end

(* A learned clause is locked while it is the antecedent of an
   assignment on the trail; locked clauses are never reduced away. *)
let locked (s : t) c = s.reason.(var_of s.arena.{c + hdr}) = c

(* Slide the live clauses down over the deleted ones, in arena order.
   A first pass stores each live clause's new offset in its flags word,
   so the watches, reasons and [learnts] can be rewritten through it
   before the second pass moves the clauses and renumbers the
   activities densely, also in arena order.  Learned clauses are
   appended, so arena order is [learnts] order, and both passes only
   ever move a clause or an activity down. *)
let compact (s : t) =
  s.arena_compactions <- s.arena_compactions + 1;
  let a = s.arena in
  let c = ref 0 and dst = ref 0 in
  while !c < s.arena_top do
    let size = a.{!c} and flags = a.{!c + 1} in
    if flags land f_deleted = 0 then begin
      a.{!c + 1} <- (!dst lsl 2) lor flags;
      dst := !dst + hdr + size
    end;
    c := !c + hdr + size
  done;
  let forward c = a.{c + 1} lsr 2 in
  Array.iteri
    (fun k ws ->
      for i = 0 to s.watch_len.(k) - 1 do
        let e = ws.(i) in
        ws.(i) <- (forward (entry_clause e) lsl 32) lor (e land 0xFFFF_FFFF)
      done)
    s.watches;
  Array.iteri (fun v r -> if r >= 0 then s.reason.(v) <- forward r) s.reason;
  for i = 0 to s.n_learnts - 1 do
    s.learnts.(i) <- forward s.learnts.(i)
  done;
  let c = ref 0 and n_act = ref 0 in
  while !c < s.arena_top do
    let size = a.{!c} and flags = a.{!c + 1} in
    if flags land f_deleted = 0 then begin
      let d = flags lsr 2 in
      for i = 0 to hdr + size - 1 do
        a.{d + i} <- a.{!c + i}
      done;
      a.{d + 1} <- flags land (f_learned lor f_deleted);
      if flags land f_learned <> 0 then begin
        s.cla_act.(!n_act) <- s.cla_act.(a.{d + 2});
        s.cla_glue.(!n_act) <- s.cla_glue.(a.{d + 2});
        a.{d + 2} <- !n_act;
        incr n_act
      end
    end;
    c := !c + hdr + size
  done;
  s.arena_top <- !dst;
  s.arena_dead <- 0;
  s.n_act <- !n_act

(* Learned-DB reduction: rank the learned clauses worst first, by
   higher glue, then by lower activity, and drop the first half of that
   order, sparing locked and binary clauses and every clause of glue 2
   or less (Audemard & Simon's "glue clauses"); then filter every watch
   vector.  Called on a geometric schedule: [max_learnts] grows 1.2x per
   reduction, so the DB stays bounded while long refutations keep their
   useful lemmas.  Once a fifth of the arena is dead, it is compacted. *)
let reduce_db (s : t) =
  s.db_reductions <- s.db_reductions + 1;
  let a = s.arena in
  let n = s.n_learnts in
  let arr = Array.sub s.learnts 0 n in
  let glue c = s.cla_glue.(a.{c + 2}) and act c = s.cla_act.(a.{c + 2}) in
  Array.sort
    (fun c d ->
      match Int.compare (glue d) (glue c) with 0 -> Float.compare (act c) (act d) | o -> o)
    arr;
  let to_drop = ref (n / 2) in
  Array.iter
    (fun c ->
      if !to_drop > 0 && (not (locked s c)) && a.{c} > 2 && glue c > 2 then begin
        a.{c + 1} <- a.{c + 1} lor f_deleted;
        s.arena_dead <- s.arena_dead + hdr + a.{c};
        decr to_drop
      end)
    arr;
  let live c = a.{c + 1} land f_deleted = 0 in
  (* keep the first [len] words of [v] whose [clause] is live *)
  let filter ~clause (v : int array) len =
    let j = ref 0 in
    for i = 0 to len - 1 do
      if live (clause v.(i)) then begin
        v.(!j) <- v.(i);
        incr j
      end
    done;
    !j
  in
  s.n_learnts <- filter ~clause:Fun.id s.learnts n;
  Array.iteri (fun k ws -> s.watch_len.(k) <- filter ~clause:entry_clause ws s.watch_len.(k)) s.watches;
  s.max_learnts <- s.max_learnts *. 1.2;
  if 5 * s.arena_dead >= s.arena_top then compact s

(* Store [analyze]'s clause as a learned clause. *)
let learn (s : t) : int =
  let c = new_clause s s.learnt_buf s.learnt_len ~learned:true in
  if s.n_learnts = Array.length s.learnts then begin
    let grown = Array.make (max 64 (2 * s.n_learnts)) 0 in
    Array.blit s.learnts 0 grown 0 s.n_learnts;
    s.learnts <- grown
  end;
  s.learnts.(s.n_learnts) <- c;
  s.n_learnts <- s.n_learnts + 1;
  if s.n_learnts > s.learned_peak then s.learned_peak <- s.n_learnts;
  bump_clause s c;
  watch s c s.learnt_buf.(0) ~blocker:s.learnt_buf.(1);
  watch s c s.learnt_buf.(1) ~blocker:s.learnt_buf.(0);
  c

(* Phase-saved branching: pick the highest-activity unassigned variable
   and assign it its last saved polarity (initially false, matching the
   zeros oracle bias). *)
let pick_branch_var (s : t) : int option =
  let rec go () =
    if s.heap_len = 0 then None
    else begin
      let v = heap_pop s in
      if value_lit s (pos v) <> 0 then go () else Some v
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
    if value_lit s (pos v) = 0 then heap_insert s v
  done;
  if s.max_learnts < Float.max 2000.0 (float_of_int s.num_clauses) then
    s.max_learnts <- Float.max 2000.0 (float_of_int s.num_clauses);
  let restart_num = ref 0 in
  let result = ref None in
  (try
     (* top-level propagation of units added by add_clause *)
     if propagate s >= 0 then result := Some Unsat;
     while !result = None do
       incr restart_num;
       let budget = 100 * luby !restart_num in
       let local_conflicts = ref 0 in
       (try
          while !result = None do
            let confl = propagate s in
            if confl >= 0 then begin
              s.conflicts <- s.conflicts + 1;
              incr local_conflicts;
              (* A conflict at level 0 is a refutation whatever the
                 budget: [propagate] has moved past its clause, so a
                 later call would never see it again. *)
              if s.decision_level = 0 then begin
                result := Some Unsat;
                raise Exit
              end;
              if s.conflicts - conflicts0 > max_conflicts then raise Budget_exceeded;
              let blevel = analyze s confl in
              backtrack s blevel;
              decay_var_activity s;
              decay_clause_activity s;
              if s.learnt_len = 1 then enqueue s s.learnt_buf.(0) (-1)
              else begin
                let c = learn s in
                enqueue s s.learnt_buf.(0) c
              end;
              if float_of_int s.n_learnts >= s.max_learnts then reduce_db s;
              if !local_conflicts >= budget then begin
                (* restart *)
                s.restarts <- s.restarts + 1;
                backtrack s 0;
                raise Exit
              end
            end
            else
              match pick_branch_var s with
              | None ->
                (* full assignment: SAT *)
                result := Some (Sat (Array.init s.nvars (fun v -> value_lit s (pos v) = 1)));
                raise Exit
              | Some v ->
                s.decisions <- s.decisions + 1;
                s.trail_lim.(s.decision_level) <- s.trail_len;
                s.decision_level <- s.decision_level + 1;
                enqueue s (lit_of ~negated:(Bytes.get_uint8 s.phase v = 0) v) (-1)
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
  with_solver nvars @@ fun s ->
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
  st_arena_compactions : int;
  st_restarts : int;
}

let statistics s =
  { st_conflicts = s.conflicts;
    st_decisions = s.decisions;
    st_propagations = s.propagations;
    st_clauses = s.num_clauses;
    st_learned_peak = s.learned_peak;
    st_db_reductions = s.db_reductions;
    st_arena_compactions = s.arena_compactions;
    st_restarts = s.restarts;
  }
