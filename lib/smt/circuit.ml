(* Boolean circuits with constant-folding smart constructors, structural
   hash-consing, and a Tseitin translation to CNF for the CDCL solver.
   The refinement checker builds one circuit per verification query;
   bit-blasted bitvector arithmetic lives in [Bvterm] on top of this
   module.

   Hash-consing: [ctx] carries a table keyed on (constructor, child
   ids), so constructing a gate structurally identical to an existing
   one returns the existing node.  The checker cofactors the source's
   encoding once per universal choice assignment ([cofactor] below);
   shared structure across those copies collapses to shared nodes, and
   the Tseitin translation (memoized on node id) emits one CNF
   definition per distinct gate instead of one per occurrence.
   Commutative gates are canonicalized by child id and Xor never has a
   negated child (Xor(¬x,y) = ¬Xor(x,y)), so cross-gate CSE catches
   reassociated and re-polarized duplicates too. *)

type t = { id : int; node : node }

and node =
  | True
  | False
  | Input of int (* free boolean variable, by input index *)
  | Not of t
  | And of t * t
  | Or of t * t
  | Xor of t * t
  | Ite of t * t * t

(* hash-cons key: constructor + child ids *)
type hkey =
  | KNot of int
  | KAnd of int * int
  | KOr of int * int
  | KXor of int * int
  | KIte of int * int * int

type ctx = {
  mutable next_id : int;
  mutable next_input : int;
  sharing : bool; (* hash-consing toggle (off only for measurement) *)
  table : (hkey, t) Hashtbl.t;
}

let create_ctx ?(sharing = true) () =
  { next_id = 2; next_input = 0; sharing; table = Hashtbl.create 64 }

let mk ctx node =
  let id = ctx.next_id in
  ctx.next_id <- ctx.next_id + 1;
  { id; node }

(* Hash-consing allocator: return the existing node for an identical
   (constructor, children) application, if any. *)
let hmk ctx key node =
  if not ctx.sharing then mk ctx node
  else
    match Hashtbl.find_opt ctx.table key with
    | Some t -> t
    | None ->
      let t = mk ctx node in
      Hashtbl.add ctx.table key t;
      t

let btrue = { id = 0; node = True }
let bfalse = { id = 1; node = False }
let of_bool b = if b then btrue else bfalse

let fresh ctx =
  let idx = ctx.next_input in
  ctx.next_input <- ctx.next_input + 1;
  mk ctx (Input idx)

let is_true b = b.node = True
let is_false b = b.node = False

(* Smart constructors with local simplification.  Structural-equality
   tests use ids; with hash-consing these hit far more often (e.g. two
   separately-built [bnot ctx x] are the same node, so And(x, ¬x) is
   recognized wherever it appears). *)

let rec bnot ctx a =
  match a.node with
  | True -> bfalse
  | False -> btrue
  | Not x -> x
  | _ -> hmk ctx (KNot a.id) (Not a)

and band ctx a b =
  if a.id = b.id then a
  else
    match (a.node, b.node) with
    | True, _ -> b
    | _, True -> a
    | False, _ | _, False -> bfalse
    | Not x, _ when x.id = b.id -> bfalse
    | _, Not y when y.id = a.id -> bfalse
    (* one-level absorption: a ∧ (a ∧ y) = (a ∧ y), a ∧ (a ∨ y) = a *)
    | And (x, y), _ when x.id = b.id || y.id = b.id -> a
    | _, And (x, y) when x.id = a.id || y.id = a.id -> b
    | Or (x, y), _ when x.id = b.id || y.id = b.id -> b
    | _, Or (x, y) when x.id = a.id || y.id = a.id -> a
    | _ ->
      (* canonical child order for commutative gates *)
      let a, b = if a.id <= b.id then (a, b) else (b, a) in
      hmk ctx (KAnd (a.id, b.id)) (And (a, b))

and bor ctx a b =
  if a.id = b.id then a
  else
    match (a.node, b.node) with
    | False, _ -> b
    | _, False -> a
    | True, _ | _, True -> btrue
    | Not x, _ when x.id = b.id -> btrue
    | _, Not y when y.id = a.id -> btrue
    (* one-level absorption: a ∨ (a ∨ y) = (a ∨ y), a ∨ (a ∧ y) = a *)
    | Or (x, y), _ when x.id = b.id || y.id = b.id -> a
    | _, Or (x, y) when x.id = a.id || y.id = a.id -> b
    | And (x, y), _ when x.id = b.id || y.id = b.id -> b
    | _, And (x, y) when x.id = a.id || y.id = a.id -> a
    | _ ->
      let a, b = if a.id <= b.id then (a, b) else (b, a) in
      hmk ctx (KOr (a.id, b.id)) (Or (a, b))

and bxor ctx a b =
  if a.id = b.id then bfalse
  else
    match (a.node, b.node) with
    | False, _ -> b
    | _, False -> a
    | True, _ -> bnot ctx b
    | _, True -> bnot ctx a
    (* negation normalization: Xor children are never Not nodes, so
       x⊕y, ¬x⊕y, x⊕¬y, ¬x⊕¬y all share one Xor gate *)
    | Not x, _ -> bnot ctx (bxor ctx x b)
    | _, Not y -> bnot ctx (bxor ctx a y)
    | _ ->
      let a, b = if a.id <= b.id then (a, b) else (b, a) in
      hmk ctx (KXor (a.id, b.id)) (Xor (a, b))

and bite ctx c a b =
  if a.id = b.id then a
  else
    match (c.node, a.node, b.node) with
    | True, _, _ -> a
    | False, _, _ -> b
    | _, True, False -> c
    | _, False, True -> bnot ctx c
    | _, True, _ -> bor ctx c b
    | _, False, _ -> band ctx (bnot ctx c) b
    | _, _, True -> bor ctx (bnot ctx c) a
    | _, _, False -> band ctx c a
    (* condition-negation normalization shares the two muxes *)
    | Not nc, _, _ -> bite ctx nc b a
    | _ -> hmk ctx (KIte (c.id, a.id, b.id)) (Ite (c, a, b))

let beq ctx a b = bnot ctx (bxor ctx a b)

let big_and ctx = List.fold_left (band ctx) btrue
let big_or ctx = List.fold_left (bor ctx) bfalse

(* ------------------------------------------------------------------ *)
(* Cofactoring                                                         *)
(* ------------------------------------------------------------------ *)

(* Substituting constants for a few inputs of a circuit, once per
   assignment.  [cofactor ctx ~vars root] walks [root] once.  The [vars]
   it reaches are its support, numbered in the order the walk meets
   them: [support.(k)] is bit k of an assignment, so there are
   [2^(Array.length support)] distinct cofactors, and a var outside the
   support cannot change any.  Every node gets the bitmask of the
   support it depends on, and the nodes with a non-empty mask — the
   cone that a substitution can change — are kept in topological order;
   nothing else is visited again.  A node older than every var cannot
   reach one (ids grow and children are built first), so the walk stops
   there.

   The support is the expansion's budget: [cofactor ~max_support]
   raises [Support_exceeds k] the moment the walk meets the k-th
   support var with k > max_support, before any cofactor is built.
   Masks and assignments are ints, so the limit is also capped at
   [Sys.int_size - 1] bits whatever the caller asks for. *)
type cnode = {
  n : t; (* the original node *)
  mask : int; (* the support bits it depends on *)
  k0 : int; (* per child: its cone index, or -1 when outside the cone; *)
  k1 : int; (* for an input, k0 is its bit instead *)
  k2 : int;
}

type cofactor = {
  cctx : ctx;
  root : t;
  root_k : int; (* the root's cone index, or -1 *)
  support : t array;
  cone : cnode array;
  res : t array; (* per cone node: its rebuild under [last] *)
  mutable last : int option; (* the previous assignment *)
}

exception Support_exceeds of int

let max_mask_bits = Sys.int_size - 1

let cofactor ctx ?(max_support = max_mask_bits) ~(vars : t array) (root : t) : cofactor =
  let max_support = min max_support max_mask_bits in
  let is_var = Hashtbl.create (2 * Array.length vars) in
  Array.iter
    (fun v ->
      match v.node with
      | Input _ -> Hashtbl.replace is_var v.id ()
      | _ -> invalid_arg "Circuit.cofactor: not an input")
    vars;
  let min_id = Array.fold_left (fun m v -> min m v.id) max_int vars in
  let index = Hashtbl.create 64 in
  let cone = ref [] and size = ref 0 and support = ref [] and bits = ref 0 in
  let push c =
    cone := c :: !cone;
    incr size;
    !size - 1
  in
  (* visit: the node's (cone index or -1, mask), memoized on its id *)
  let rec visit n =
    if n.id < min_id then (-1, 0)
    else
      match Hashtbl.find_opt index n.id with
      | Some r -> r
      | None ->
        let node k0 k1 k2 mask =
          if mask = 0 then (-1, 0) else (push { n; mask; k0; k1; k2 }, mask)
        in
        let r =
          match n.node with
          | True | False -> (-1, 0)
          | Input _ ->
            if Hashtbl.mem is_var n.id then begin
              let b = !bits in
              if b >= max_support then raise (Support_exceeds (b + 1));
              incr bits;
              support := n :: !support;
              node b (-1) (-1) (1 lsl b)
            end
            else (-1, 0)
          | Not x ->
            let kx, mx = visit x in
            node kx (-1) (-1) mx
          | And (x, y) | Or (x, y) | Xor (x, y) ->
            let kx, mx = visit x in
            let ky, my = visit y in
            node kx ky (-1) (mx lor my)
          | Ite (c, x, y) ->
            let kc, mc = visit c in
            let kx, mx = visit x in
            let ky, my = visit y in
            node kc kx ky (mc lor mx lor my)
        in
        Hashtbl.add index n.id r;
        r
  in
  let root_k, _ = visit root in
  let cone = Array.of_list (List.rev !cone) in
  { cctx = ctx;
    root;
    root_k;
    support = Array.of_list (List.rev !support);
    cone;
    res = Array.map (fun c -> c.n) cone;
    last = None;
  }

(* [root] with bit k of [assignment] substituted for [support.(k)], rebuilt
   bottom-up through the smart constructors, so constants fold exactly
   as they would had the circuit been built with them.  Only the cone
   is rebuilt, and of it only the nodes that depend on a bit that
   changed since the previous call; a node outside the cone comes back
   physically unchanged. *)
let cofactor_apply (cf : cofactor) (assignment : int) : t =
  let changed = match cf.last with None -> -1 | Some a -> a lxor assignment in
  cf.last <- Some assignment;
  let ctx = cf.cctx and res = cf.res in
  let arg k orig = if k < 0 then orig else res.(k) in
  for k = 0 to Array.length cf.cone - 1 do
    let c = cf.cone.(k) in
    if c.mask land changed <> 0 then
      res.(k) <-
        (match c.n.node with
        | Input _ -> of_bool ((assignment lsr c.k0) land 1 = 1)
        | Not x -> bnot ctx (arg c.k0 x)
        | And (x, y) -> band ctx (arg c.k0 x) (arg c.k1 y)
        | Or (x, y) -> bor ctx (arg c.k0 x) (arg c.k1 y)
        | Xor (x, y) -> bxor ctx (arg c.k0 x) (arg c.k1 y)
        | Ite (x, y, z) -> bite ctx (arg c.k0 x) (arg c.k1 y) (arg c.k2 z)
        | True | False -> assert false)
  done;
  arg cf.root_k cf.root

(* ------------------------------------------------------------------ *)
(* Tseitin CNF                                                         *)
(* ------------------------------------------------------------------ *)

module Cnf = struct
  open Ub_sat

  (* The Tseitin builder of one query: SAT variables are numbered by
     [number] before the solver exists (variable 0 is pinned true),
     circuit nodes and inputs each through a memo table, so a shared
     node is encoded once.  Node ids and input indices are dense, so the
     tables are arrays sized by the context; 0 means "no variable", and
     a node's variable is negative until its clauses are added. *)
  type builder = {
    solver : Solver.t;
    node_var : int array; (* circuit node id -> SAT var, or 0 *)
    input_var : int array; (* input index -> SAT var, or 0 *)
    next_var : int; (* the number of SAT variables *)
    mutable ok : bool; (* false once add_clause reported level-0 unsat *)
  }

  (* [c] is a fresh array: the solver takes it over. *)
  let add b c = if not (Solver.add_clause b.solver c) then b.ok <- false

  (* Give every input and And/Or/Xor/Ite node under [root] its
     variable, in pre-order, so the solver can be
     sized by the variables the encoding uses; returns their number and
     how many of them are inputs. *)
  let number ~(node_var : int array) ~(input_var : int array) (root : t) : int * int =
    let next = ref 1 and inputs = ref 0 in
    let fresh () =
      incr next;
      !next - 1
    in
    let rec go (t : t) =
      match t.node with
      | True | False -> ()
      | Input i ->
        if input_var.(i) = 0 then begin
          input_var.(i) <- fresh ();
          incr inputs
        end
      | Not x -> go x
      | And (x, y) | Or (x, y) | Xor (x, y) ->
        if node_var.(t.id) = 0 then begin
          node_var.(t.id) <- -fresh ();
          go x;
          go y
        end
      | Ite (c, x, y) ->
        if node_var.(t.id) = 0 then begin
          node_var.(t.id) <- -fresh ();
          go c;
          go x;
          go y
        end
    in
    go root;
    (!next, !inputs)

  (* [t]'s literal in the numbering of [number], encoded or not. *)
  let rec numbered_lit ~(node_var : int array) ~(input_var : int array) (t : t) : Solver.lit =
    match t.node with
    | True -> Solver.pos 0 (* var 0 is pinned true *)
    | False -> Solver.neg 0
    | Input i -> Solver.pos input_var.(i)
    | Not x -> Solver.lnot (numbered_lit ~node_var ~input_var x)
    | And _ | Or _ | Xor _ | Ite _ -> Solver.pos (abs node_var.(t.id))

  (* Translate a numbered node to its SAT literal, adding its clauses
     the first time. *)
  let rec lit_of (b : builder) (t : t) : Solver.lit =
    match t.node with
    | True | False | Input _ -> numbered_lit ~node_var:b.node_var ~input_var:b.input_var t
    | Not x -> Solver.lnot (lit_of b x)
    | _ ->
      let v = b.node_var.(t.id) in
      if v > 0 then Solver.pos v
      else begin
        let v = -v in
        b.node_var.(t.id) <- v;
        let out = Solver.pos v in
        (match t.node with
        | And (x, y) ->
          let lx = lit_of b x and ly = lit_of b y in
          add b [| Solver.lnot out; lx |];
          add b [| Solver.lnot out; ly |];
          add b [| out; Solver.lnot lx; Solver.lnot ly |]
        | Or (x, y) ->
          let lx = lit_of b x and ly = lit_of b y in
          add b [| out; Solver.lnot lx |];
          add b [| out; Solver.lnot ly |];
          add b [| Solver.lnot out; lx; ly |]
        | Xor (x, y) ->
          let lx = lit_of b x and ly = lit_of b y in
          add b [| Solver.lnot out; lx; ly |];
          add b [| Solver.lnot out; Solver.lnot lx; Solver.lnot ly |];
          add b [| out; lx; Solver.lnot ly |];
          add b [| out; Solver.lnot lx; ly |]
        | Ite (c, x, y) ->
          let lc = lit_of b c and lx = lit_of b x and ly = lit_of b y in
          add b [| Solver.lnot out; Solver.lnot lc; lx |];
          add b [| Solver.lnot out; lc; ly |];
          add b [| out; Solver.lnot lc; Solver.lnot lx |];
          add b [| out; lc; Solver.lnot ly |]
        | True | False | Input _ | Not _ -> assert false);
        out
      end

  (* Read a model for the circuit inputs out of a full assignment to
     the SAT variables.  An input the encoding never referenced is
     unconstrained; report it false (the zeros-bias default). *)
  let model_of_assignment (input_var : int array) (assignment : bool array) =
    fun i ->
      let v = if i < Array.length input_var then input_var.(i) else 0 in
      v > 0 && v < Array.length assignment && assignment.(v)

  type model = { bool_of_input : int -> bool }

  type solve_result = Sat_model of model | Unsat_r

  exception Too_hard

  (* ---------------------------------------------------------------- *)
  (* Exhaustive simulation                                             *)
  (* ---------------------------------------------------------------- *)

  (* A cone that reaches n inputs has 2^n assignments, and evaluating
     it under every one of them decides [root = true] exactly: a true
     lane is a model, and no true lane after the last block is a
     refutation.  One int carries [lanes] = 32 assignments, one per bit
     (a lane).  The cone's inputs are taken in input-index order; input
     k < 5 holds [lane_pattern.(k)], whose lane j is bit k of j, and
     input k >= 5 is all zeros or all ones, spelling bit k - 5 of the
     block number.  So lane j of block b is the assignment
     [(b lsl 5) lor j], and a cone of n < 5 inputs has only its lanes
     below 2^n distinct.  Gates are evaluated word-wise, children
     first, so a block costs one word operation per gate, and the cone
     gates * 2^n / 32 of them. *)
  let lane_bits = 5
  let lanes = 1 lsl lane_bits
  let all_lanes = (1 lsl lanes) - 1
  let lane_pattern = [| 0xAAAA_AAAA; 0xCCCC_CCCC; 0xF0F0_F0F0; 0xFF00_FF00; 0xFFFF_0000 |]

  (* The lanes that hold distinct assignments of an [n]-input cone. *)
  let lane_mask n = if n >= lane_bits then all_lanes else (1 lsl (1 lsl n)) - 1

  (* Input [k]'s word in block [blk]. *)
  let input_word k blk =
    if k < lane_bits then lane_pattern.(k)
    else if (blk lsr (k - lane_bits)) land 1 = 1 then all_lanes
    else 0

  let rec lowest_bit w = if w land 1 = 1 then 0 else 1 + lowest_bit (w lsr 1)

  (* The simulator's working arrays: [vals] one word per SAT variable,
     [prog] four words per gate, [order] the cone's input variables in
     bit order.  They are kept process-wide and grow to the largest
     cone simulated so far, the way the solver keeps its spare arena:
     a simulation takes them and hands them back, so no query, and no
     block, allocates them again. *)
  type scratch = { mutable vals : int array; mutable prog : int array; mutable order : int array }

  let spare_scratch : scratch option ref = ref None

  let grow a n = if Array.length a >= n then a else Array.make (max n (2 * Array.length a)) 0

  (* A literal's word: its variable's, complemented when negated.  The
     literal layout is [Solver]'s, written out, since a call into
     another library is not inlined in this inner loop.  No bounds
     check: every literal that [numbered_lit] makes names a variable below
     [nvars], and [vals] has at least that many words. *)
  let word (vals : int array) (l : Solver.lit) = Array.unsafe_get vals (l lsr 1) lxor -(l land 1)

  (* Lay the cone's gates out in [s.prog], children first: word 0 is
     the gate's variable shifted left by 2 over its operator (0 And,
     1 Or, 2 Xor, 3 Ite), words 1-3 its children's literals.  A nonzero
     [s.vals] marks a gate already laid out.  Returns the count. *)
  let schedule (s : scratch) ~node_var ~input_var (root : t) : int =
    let n = ref 0 in
    let lit = numbered_lit ~node_var ~input_var in
    let rec go (t : t) =
      match t.node with
      | True | False | Input _ -> ()
      | Not x -> go x
      | And (x, y) -> gate t 0 x y x
      | Or (x, y) -> gate t 1 x y x
      | Xor (x, y) -> gate t 2 x y x
      | Ite (c, x, y) -> gate t 3 c x y
    and gate t op x y z =
      let v = abs node_var.(t.id) in
      if s.vals.(v) = 0 then begin
        s.vals.(v) <- 1;
        go x;
        go y;
        if op = 3 then go z;
        let p = 4 * !n in
        s.prog.(p) <- (v lsl 2) lor op;
        s.prog.(p + 1) <- lit x;
        s.prog.(p + 2) <- lit y;
        s.prog.(p + 3) <- lit z;
        incr n
      end
    in
    go root;
    !n

  (* One block: every gate's word, in [prog]'s order.  [prog] holds at
     least [4 * gates] words, so its reads need no bounds check either;
     without the checks a block takes about half the time. *)
  let run_block (vals : int array) (prog : int array) (gates : int) =
    for g = 0 to gates - 1 do
      let p = 4 * g in
      let op = Array.unsafe_get prog p in
      let x = word vals (Array.unsafe_get prog (p + 1))
      and y = word vals (Array.unsafe_get prog (p + 2)) in
      Array.unsafe_set vals (op lsr 2)
        (match op land 3 with
        | 0 -> x land y
        | 1 -> x lor y
        | 2 -> x lxor y
        | _ -> (x land y) lor (lnot x land word vals (Array.unsafe_get prog (p + 3))))
    done

  (* Every assignment of the [inputs] inputs of [root]'s numbered cone
     ([nvars] variables), block by block until one satisfies it.
     Returns a satisfying assignment to the SAT variables, if any, and
     the number of blocks evaluated. *)
  let simulate_cone ~node_var ~input_var ~nvars ~inputs (root : t) : bool array option * int =
    let s =
      match !spare_scratch with
      | Some s ->
        spare_scratch := None;
        s
      | None -> { vals = [||]; prog = [||]; order = [||] }
    in
    Fun.protect ~finally:(fun () -> spare_scratch := Some s) @@ fun () ->
    let gates = nvars - 1 - inputs in
    s.vals <- grow s.vals nvars;
    s.prog <- grow s.prog (4 * gates);
    s.order <- grow s.order inputs;
    let vals = s.vals and order = s.order in
    Array.fill vals 0 nvars 0;
    let laid = schedule s ~node_var ~input_var root in
    assert (laid = gates);
    let k = ref 0 in
    Array.iter
      (fun v ->
        if v > 0 then begin
          order.(!k) <- v;
          incr k
        end)
      input_var;
    vals.(0) <- all_lanes (* var 0 is the constant true *);
    let root_lit = numbered_lit ~node_var ~input_var root in
    let mask = lane_mask inputs and blocks = 1 lsl max 0 (inputs - lane_bits) in
    let hit = ref (-1) and blk = ref 0 in
    while !hit < 0 && !blk < blocks do
      for k = 0 to inputs - 1 do
        vals.(order.(k)) <- input_word k !blk
      done;
      run_block vals s.prog gates;
      let r = word vals root_lit land mask in
      if r <> 0 then hit := (!blk lsl lane_bits) lor lowest_bit r;
      incr blk
    done;
    if !hit < 0 then (None, !blk)
    else begin
      let a = Array.make nvars false in
      for k = 0 to inputs - 1 do
        a.(order.(k)) <- (!hit lsr k) land 1 = 1
      done;
      (Some a, !blk)
    end

  (* The dispatch between the engines.  CDCL runs first, for at most
     [handoff_conflicts] conflicts: most queries are settled in a few
     dozen, long before a simulation could finish.  A query still open
     then is simulated when its cost, gates * 2^inputs / lanes word
     operations, is at most [sim_bound]; otherwise CDCL goes on in the
     same instance, with its learned clauses, for the rest of the
     query's budget.  Both constants were chosen by the ablation in
     EXPERIMENTS.md ("Exhaustive simulation"). *)
  let handoff_conflicts = 300
  let sim_bound = 1 lsl 22

  (* The 32 guard bits keep the shifted gate count inside an int. *)
  let simulable ~nvars ~inputs =
    inputs < lane_bits + 32 && (nvars - 1 - inputs) lsl max 0 (inputs - lane_bits) <= sim_bound

  (* The simulator alone, whatever the cone's cost: an exact decision
     procedure by itself, which the tests hold against CDCL. *)
  let simulate (ctx : ctx) (root : t) : solve_result =
    let node_var = Array.make ctx.next_id 0 and input_var = Array.make ctx.next_input 0 in
    let nvars, inputs = number ~node_var ~input_var root in
    if inputs >= lane_bits + 32 then invalid_arg "Circuit.Cnf.simulate: too many inputs";
    match simulate_cone ~node_var ~input_var ~nvars ~inputs root with
    | None, _ -> Unsat_r
    | Some a, _ -> Sat_model { bool_of_input = model_of_assignment input_var a }

  (* The engine that decided a query (or, for [Too_hard], CDCL). *)
  type engine = Cdcl | Simulation

  let engine_name = function Cdcl -> "cdcl" | Simulation -> "simulation"

  (* Per-query counters for the solver benchmark harness ([bench solver]).
     Filled into the [?stats] out-parameter of [solve] even when the
     query raises [Too_hard].  A simulated query keeps the counters of
     the CDCL probe before it. *)
  type stats = {
    circuit_nodes : int; (* circuit nodes allocated in the context *)
    cnf_vars : int; (* SAT variables actually used (const + inputs + Tseitin) *)
    cnf_clauses : int; (* clauses accepted by the solver *)
    conflicts : int;
    decisions : int;
    propagations : int;
    restarts : int;
    learned_peak : int; (* peak learned-clause DB size *)
    engine : engine;
    sim_blocks : int; (* blocks of [lanes] assignments simulated *)
  }

  let no_stats =
    { circuit_nodes = 0; cnf_vars = 0; cnf_clauses = 0; conflicts = 0; decisions = 0;
      propagations = 0; restarts = 0; learned_peak = 0; engine = Cdcl; sim_blocks = 0 }

  (* Every query also feeds the process-wide telemetry registry: run
     reports carry aggregate solver counters without any caller having
     to thread a [?stats] ref through. *)
  let observe_query (ctx : ctx) (b : builder) =
    let module Obs = Ub_obs.Obs in
    let st = Ub_sat.Solver.statistics b.solver in
    Obs.count "solver.queries";
    Obs.count ~by:st.Ub_sat.Solver.st_conflicts "solver.conflicts";
    Obs.count ~by:st.Ub_sat.Solver.st_decisions "solver.decisions";
    Obs.count ~by:st.Ub_sat.Solver.st_propagations "solver.propagations";
    Obs.count ~by:st.Ub_sat.Solver.st_restarts "solver.restarts";
    Obs.count ~by:st.Ub_sat.Solver.st_db_reductions "solver.db_reductions";
    Obs.count ~by:st.Ub_sat.Solver.st_arena_compactions "solver.arena_compactions";
    Obs.observe "smt.cnf_clauses" (float_of_int st.Ub_sat.Solver.st_clauses);
    Obs.observe "smt.cnf_vars" (float_of_int b.next_var);
    Obs.observe "smt.circuit_nodes" (float_of_int ctx.next_id)

  let record_stats (stats_out : stats ref option) (ctx : ctx) (b : builder) engine sim_blocks =
    observe_query ctx b;
    match stats_out with
    | None -> ()
    | Some r ->
      let st = Ub_sat.Solver.statistics b.solver in
      r :=
        { circuit_nodes = ctx.next_id;
          cnf_vars = b.next_var;
          cnf_clauses = st.Ub_sat.Solver.st_clauses;
          conflicts = st.Ub_sat.Solver.st_conflicts;
          decisions = st.Ub_sat.Solver.st_decisions;
          propagations = st.Ub_sat.Solver.st_propagations;
          restarts = st.Ub_sat.Solver.st_restarts;
          learned_peak = st.Ub_sat.Solver.st_learned_peak;
          engine;
          sim_blocks;
        }

  (* Satisfiability of [root = true].  [max_conflicts] bounds the CDCL
     search; raises [Too_hard] when it is exceeded on a query too large
     to simulate.  A query the simulator takes is always decided.  The
     solver's arena goes back to the spare however the query ends.  The
     span [smt.tseitin] covers setting up the builder and every clause
     add, after the numbering pass; [sat.search] covers each CDCL call,
     and [smt.simulate] the simulation. *)
  let solve ?(max_conflicts = 2_000_000) ?stats (ctx : ctx) (root : t) : solve_result =
    let module Obs = Ub_obs.Obs in
    Obs.with_span "smt.solve" @@ fun () ->
    (* Var 0 is the constant true; every input and every And/Or/Xor/Ite
       node under the root gets one var.  They are numbered first, so
       the solver is sized by the variables the encoding uses and
       decides no others. *)
    let node_var = Array.make ctx.next_id 0 and input_var = Array.make ctx.next_input 0 in
    let nvars, inputs = number ~node_var ~input_var root in
    Ub_sat.Solver.with_solver nvars @@ fun solver ->
    let b =
      Obs.with_span "smt.tseitin" @@ fun () ->
      let b = { solver; node_var; input_var; next_var = nvars; ok = true } in
      add b [| Ub_sat.Solver.pos 0 |];
      let root_lit = lit_of b root in
      add b [| root_lit |];
      b
    in
    let decided ?(engine = Cdcl) ?(blocks = 0) r =
      record_stats stats ctx b engine blocks;
      r
    in
    let search budget =
      match Obs.with_span "sat.search" @@ fun () -> Ub_sat.Solver.solve ~max_conflicts:budget solver with
      | Ub_sat.Solver.Unsat -> decided Unsat_r
      | Ub_sat.Solver.Sat a -> decided (Sat_model { bool_of_input = model_of_assignment input_var a })
    in
    let too_hard () =
      record_stats stats ctx b Cdcl 0;
      raise Too_hard
    in
    if not b.ok then decided Unsat_r
    else begin
      let probe = min max_conflicts handoff_conflicts in
      try search probe
      with Ub_sat.Solver.Budget_exceeded ->
        Obs.count "smt.sim.handoffs";
        if simulable ~nvars ~inputs then begin
          let model, blocks =
            Obs.with_span "smt.simulate" @@ fun () ->
            simulate_cone ~node_var ~input_var ~nvars ~inputs root
          in
          Obs.count "smt.sim.decided";
          Obs.count ~by:blocks "smt.sim.blocks";
          decided ~engine:Simulation ~blocks
            (match model with
            | None -> Unsat_r
            | Some a -> Sat_model { bool_of_input = model_of_assignment input_var a })
        end
        else if probe = max_conflicts then too_hard ()
        else
          let used = (Ub_sat.Solver.statistics solver).Ub_sat.Solver.st_conflicts in
          try search (max_conflicts - used) with Ub_sat.Solver.Budget_exceeded -> too_hard ()
    end
end

(* Concrete evaluation of a circuit under an input assignment — used to
   cross-check the bit-blaster against Bitvec and to validate SAT
   models.  Memoized on node ids: blasted circuits are heavily shared
   DAGs. *)
let eval (assign : int -> bool) (t : t) : bool =
  let memo : (int, bool) Hashtbl.t = Hashtbl.create 256 in
  let rec go t =
    match Hashtbl.find_opt memo t.id with
    | Some v -> v
    | None ->
      let v =
        match t.node with
        | True -> true
        | False -> false
        | Input i -> assign i
        | Not x -> not (go x)
        | And (x, y) -> go x && go y
        | Or (x, y) -> go x || go y
        | Xor (x, y) -> go x <> go y
        | Ite (c, x, y) -> if go c then go x else go y
      in
      Hashtbl.replace memo t.id v;
      v
  in
  go t
