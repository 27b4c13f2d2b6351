(* The injected-bug catalog: named, individually switchable versions of
   the classic unsound rewrites from the paper's Section 3 (plus the
   stale-flag class of Section 10.2).  Each entry is a deliberately
   wrong transformation that old LLVM really performed; the hunting farm
   (lib/hunt) measures its own recall by enabling one entry at a time
   and asserting the campaign rediscovers it.

   Entries are enabled by name through [Pass.config.inject]; the [pass]
   below is the identity when that list is empty, so it can sit at the
   end of a pipeline unconditionally.  Every entry records:
   - [section]: where the paper discusses the bug;
   - [modes]: semantics-mode names under which the rewrite is actually
     refuted by the checker (the hunting lanes to run).  These are
     verified empirically by test_hunt's recall gate;
   - [needs_undef]/[needs_cfg]/[needs_mem]: what the generated corpus
     must contain for the bug to be observable at all. *)

open Ub_support
open Ub_ir
open Instr

type entry = {
  name : string;
  section : string; (* paper citation, e.g. "S3.1" *)
  doc : string;
  modes : string list; (* mode names the bug is discoverable under *)
  needs_undef : bool; (* corpus must contain undef operands *)
  needs_cfg : bool; (* corpus must contain branches/phis *)
  needs_mem : bool; (* corpus must contain allocations and memory ops *)
  backend : string option; (* a lib/backend/mir_inject bug name: the bug
                              lives in the lowering, not in an IR rewrite;
                              [apply] is the identity and the hunt compiles
                              each program with the bug instead *)
  apply : Func.t -> Func.t;
}

(* ------------------------------------------------------------------ *)
(* Pattern helpers                                                     *)
(* ------------------------------------------------------------------ *)

let conc = function Const (Constant.Int bv) -> Some bv | _ -> None
let is_one op = match conc op with Some bv -> Bitvec.is_one bv | None -> false
let is_true = is_one
let is_zero op = match conc op with Some bv -> Bitvec.is_zero bv | None -> false
let is_false = is_zero

let is_const_int n op =
  match conc op with
  | Some bv -> Bitvec.equal bv (Bitvec.of_int ~width:(Bitvec.width bv) n)
  | None -> false

let is_undef = function Const (Constant.Undef _) -> true | _ -> false

let peephole rule = Pass.rewrite_to_fixpoint rule

(* ------------------------------------------------------------------ *)
(* Peephole entries                                                    *)
(* ------------------------------------------------------------------ *)

(* shl x,1 => shl nsw x,1: a manufactured no-signed-wrap flag (the
   stale-flag bug class of Section 10.2).  Poison appears where the
   source had a value whenever the shift overflows. *)
let shl_nsw =
  peephole (fun _fn named ->
      match named.ins with
      | Binop (Shl, attrs, ty, x, one) when is_one one && not attrs.nsw ->
        Pass.Replace_ins (Binop (Shl, { attrs with nsw = true }, ty, x, one))
      | _ -> Pass.Keep)

(* udiv x,y => udiv exact x,y: claims the division has no remainder.
   (y = 1 is excluded: that one really is exact.) *)
let udiv_exact =
  peephole (fun _fn named ->
      match named.ins with
      | Binop (UDiv, attrs, ty, x, y) when (not attrs.exact) && not (is_one y) ->
        Pass.Replace_ins (Binop (UDiv, { attrs with exact = true }, ty, x, y))
      | _ -> Pass.Keep)

(* mul x,2 => add x,x without the freeze guard: duplicates an SSA use,
   so an undef x can take two different values (Section 3.1).  Only
   observable in modes where undef exists. *)
let mul2_add_dup =
  peephole (fun _fn named ->
      match named.ins with
      | Binop (Mul, attrs, ty, x, two) when is_const_int 2 two ->
        Pass.Replace_ins (Binop (Add, { attrs with exact = false }, ty, x, x))
      | _ -> Pass.Keep)

(* select c, true, x => or c, x (Section 3.4): the non-chosen arm's
   poison leaks through the or.  Sound only under the LangRef
   Select_arith reading. *)
let select_or_true =
  peephole (fun _fn named ->
      match named.ins with
      | Select (c, ty, t, x) when Types.is_bool ty && is_true t ->
        Pass.Replace_ins (Binop (Or, no_attrs, ty, c, x))
      | _ -> Pass.Keep)

(* select c, x, false => and c, x: the dual rewrite. *)
let select_and_false =
  peephole (fun _fn named ->
      match named.ins with
      | Select (c, ty, x, f) when Types.is_bool ty && is_false f ->
        Pass.Replace_ins (Binop (And, no_attrs, ty, c, x))
      | _ -> Pass.Keep)

(* select c, x, undef => x (PR31633, Section 3.4): wrong because x may
   be poison and poison is strictly stronger than undef. *)
let select_undef_arm =
  peephole (fun _fn named ->
      match named.ins with
      | Select (_, _, x, u) when is_undef u -> Pass.Replace_with x
      | Select (_, _, u, x) when is_undef u -> Pass.Replace_with x
      | _ -> Pass.Keep)

(* freeze(binop nsw/nuw x y) => binop nsw/nuw (freeze x) (freeze y):
   hoisting freeze past an instruction that *produces* poison.  The
   source is never poison (frozen); the target is poison on overflow. *)
let freeze_hoist_nsw =
  peephole (fun fn named ->
      match named.ins with
      | Freeze (_, Var v) -> (
        match Func.find_def fn v with
        | Some { Instr.ins = Binop (op, attrs, ty', x, y); _ }
          when attrs.nsw || attrs.nuw -> (
          match named.def with
          | Some def ->
            let fx = "inj.f1." ^ def and fy = "inj.f2." ^ def in
            Pass.Expand
              [ { Instr.def = Some fx; ins = Freeze (ty', x) };
                { Instr.def = Some fy; ins = Freeze (ty', y) };
                { named with ins = Binop (op, attrs, ty', Var fx, Var fy) };
              ]
          | None -> Pass.Keep)
        | _ -> Pass.Keep)
      | _ -> Pass.Keep)

(* freeze x => x: GVN treating freeze(x) as equal to x (Section 5
   "freeze" / Section 6 GVN limitation).  Reintroduces the very
   poison/undef the freeze was inserted to stop. *)
let gvn_freeze_elim =
  peephole (fun _fn named ->
      match named.ins with
      | Freeze (_, x) -> Pass.Replace_with x
      | _ -> Pass.Keep)

(* add nsw (add nsw a b) c => add nsw a (add nsw b c): reassociation
   keeping the nsw flags (Section 3.2).  The new intermediate b+c may
   overflow on inputs where the original association did not. *)
let reassoc_nsw =
  peephole (fun fn named ->
      match named.ins with
      | Binop (Add, attrs, ty, Var v, c)
        when attrs.nsw && not attrs.nuw
             (* don't re-fire on our own expansion output: the fresh
                name is derived from [named.def], so a second firing on
                the same def would collide *)
             && not (String.length v >= 7 && String.sub v 0 7 = "inj.ra.") -> (
        match Func.find_def fn v with
        | Some { Instr.ins = Binop (Add, attrs2, _, a, b); _ }
          when attrs2.nsw && Func.use_count fn v = 1 -> (
          match named.def with
          | Some def when Func.find_def fn ("inj.ra." ^ def) = None ->
            let t = "inj.ra." ^ def in
            Pass.Expand
              [ { Instr.def = Some t; ins = Binop (Add, nsw_only, ty, b, c) };
                { named with ins = Binop (Add, nsw_only, ty, a, Var t) };
              ]
          | _ -> Pass.Keep)
        | _ -> Pass.Keep)
      | _ -> Pass.Keep)

(* ------------------------------------------------------------------ *)
(* Function-level entries (need control flow)                          *)
(* ------------------------------------------------------------------ *)

(* LICM-style speculation of a trapping division (Section 3.3 / the
   hoisting family of Section 2): move the first udiv/sdiv/urem/srem
   whose operands are available in the entry block up into the entry
   block.  Executions that never reached the division now trap (or
   trip the div-by-poison UB rule) unconditionally. *)
let spec_div_hoist (fn : Func.t) : Func.t =
  match fn.Func.blocks with
  | entry :: rest when rest <> [] ->
    let entry_defs = List.filter_map (fun n -> n.Instr.def) entry.Func.insns in
    let avail = List.map fst fn.Func.args @ entry_defs in
    let ok_op = function Const _ -> true | Var v -> List.mem v avail in
    let found = ref None in
    List.iter
      (fun (b : Func.block) ->
        if !found = None then
          List.iteri
            (fun i n ->
              if !found = None then
                match n.Instr.ins with
                | Binop ((UDiv | SDiv | URem | SRem), _, _, x, y) when ok_op x && ok_op y
                  ->
                  found := Some (b.Func.label, i, n)
                | _ -> ())
            b.Func.insns)
      rest;
    (match !found with
    | None -> fn
    | Some (lbl, i, n) ->
      let rest' =
        List.map
          (fun (b : Func.block) ->
            if b.Func.label = lbl then
              { b with Func.insns = List.filteri (fun j _ -> j <> i) b.Func.insns }
            else b)
          rest
      in
      { fn with Func.blocks = { entry with Func.insns = entry.Func.insns @ [ n ] } :: rest' })
  | _ -> fn

(* GVN's equality propagation (Section 3.3): after `br (icmp eq v, w)`,
   replace uses of w by v inside the then-branch (including phi values
   arriving from it).  Under Branch_nondet a poison condition may enter
   the branch without UB, and v may be poison where w was a value. *)
let gvn_eq_propagate (fn : Func.t) : Func.t =
  match fn.Func.blocks with
  | entry :: _ -> (
    match entry.Func.term with
    | Cond_br (Var c, l_then, l_else) when l_then <> l_else -> (
      match Func.find_def fn c with
      | Some { Instr.ins = Icmp (Eq, _, (Var _ as v), w); _ } when w <> v ->
        let subst op = if op = w then v else op in
        let subst_ins ins = Instr.map_operands subst ins in
        let subst_phi ins =
          match ins with
          | Phi (ty, incoming) ->
            Phi
              (ty, List.map (fun (op, l) -> if l = l_then then (subst op, l) else (op, l)) incoming)
          | _ -> ins
        in
        let blocks =
          List.map
            (fun (b : Func.block) ->
              if b.Func.label = l_then then
                { b with
                  Func.insns =
                    List.map (fun n -> { n with Instr.ins = subst_ins n.Instr.ins }) b.Func.insns;
                  Func.term =
                    (match b.Func.term with
                    | Ret (ty, op) -> Ret (ty, subst op)
                    | Cond_br (op, a, bl) -> Cond_br (subst op, a, bl)
                    | t -> t);
                }
              else
                { b with
                  Func.insns =
                    List.map (fun n -> { n with Instr.ins = subst_phi n.Instr.ins }) b.Func.insns;
                })
            fn.Func.blocks
        in
        { fn with Func.blocks }
      | _ -> fn)
    | _ -> fn)
  | [] -> fn

(* SimplifyCFG's phi => select on an empty diamond (Section 3.4): fold
   `br c, t, e` over two empty forwarding blocks into selects in the
   join block.  Whether this is sound depends entirely on the select
   semantics chosen — the paper's point. *)
let phi_to_select (fn : Func.t) : Func.t =
  match fn.Func.blocks with
  | entry :: _ -> (
    match entry.Func.term with
    | Cond_br (c, lt, le) when lt <> le -> (
      match (Func.find_block fn lt, Func.find_block fn le) with
      | Some bt, Some be when bt.Func.insns = [] && be.Func.insns = [] -> (
        match (bt.Func.term, be.Func.term) with
        | Br xt, Br xe
          when xt = xe
               && xt <> entry.Func.label
               && Func.preds_of fn lt = [ entry.Func.label ]
               && Func.preds_of fn le = [ entry.Func.label ]
               && List.sort compare (Func.preds_of fn xt) = List.sort compare [ lt; le ] ->
          let convertible = ref true in
          let convert (n : Instr.named) =
            match n.Instr.ins with
            | Phi (ty, incoming) -> (
              match (List.assoc_opt lt (List.map (fun (o, l) -> (l, o)) incoming),
                     List.assoc_opt le (List.map (fun (o, l) -> (l, o)) incoming))
              with
              | Some a, Some b -> { n with Instr.ins = Select (c, ty, a, b) }
              | _ ->
                convertible := false;
                n)
            | _ -> n
          in
          let blocks =
            List.filter_map
              (fun (b : Func.block) ->
                if b.Func.label = lt || b.Func.label = le then None
                else if b.Func.label = entry.Func.label then
                  Some { b with Func.term = Br xt }
                else if b.Func.label = xt then
                  Some { b with Func.insns = List.map convert b.Func.insns }
                else Some b)
              fn.Func.blocks
          in
          if !convertible then { fn with Func.blocks } else fn
        | _ -> fn)
      | _ -> fn)
    | _ -> fn)
  | [] -> fn

(* ------------------------------------------------------------------ *)
(* Memory entries (need allocations and memory ops)                    *)
(* ------------------------------------------------------------------ *)

(* Store-to-load forwarding assuming syntactic noalias: replace a load
   with the value most recently stored through the *syntactically same*
   pointer, skipping an intervening store through a different SSA
   pointer.  Wrong whenever the other pointer aliases — e.g. it was
   recovered from the same address by a ptrtoint/inttoptr round-trip
   (the provenance blind spot of Section 4.2 / Beck et al.). *)
let store_forward_alias (fn : Func.t) : Func.t =
  let found = ref None in
  List.iter
    (fun (b : Func.block) ->
      if !found = None then
        List.iteri
          (fun j (n : Instr.named) ->
            if !found = None then
              match (n.Instr.def, n.Instr.ins) with
              | Some d, Load (ty, p) ->
                (* walk back to the nearest store through [p]; only fire
                   if a store through a different pointer intervenes *)
                let rec back i intervening =
                  if i >= 0 then
                    match (List.nth b.Func.insns i).Instr.ins with
                    | Store (ty2, v2, p2) ->
                      if p2 = p then begin
                        if intervening && Types.equal ty2 ty then
                          found := Some (b.Func.label, j, d, v2)
                      end
                      else back (i - 1) true
                    | _ -> back (i - 1) intervening
                in
                back (j - 1) false
              | _ -> ())
          b.Func.insns)
    fn.Func.blocks;
  match !found with
  | None -> fn
  | Some (lbl, j, d, v) ->
    let subst op = if op = Var d then v else op in
    { fn with
      Func.blocks =
        List.map
          (fun (b : Func.block) ->
            let insns =
              if b.Func.label = lbl then List.filteri (fun i _ -> i <> j) b.Func.insns
              else b.Func.insns
            in
            { b with
              Func.insns =
                List.map (fun n -> { n with Instr.ins = Instr.map_operands subst n.Instr.ins }) insns;
              Func.term = Instr.map_term_operands subst b.Func.term;
            })
          fn.Func.blocks;
    }

(* Load widening without the allocation-size guard: every i8 load
   becomes a <2 x i8> vector load plus extractelement 0.  Contrast
   lib/opt/load_widen.ml, which only widens when the underlying malloc
   is known to have >= 4 bytes left; dropping the guard reads one byte
   past a 1-byte allocation — out-of-bounds UB the source never had. *)
let load_widen_oob =
  peephole (fun fn named ->
      match named.ins with
      | Load ((Types.Int 8 as ty), p) -> (
        match named.def with
        | Some def when Func.find_def fn ("inj.lw." ^ def) = None ->
          let vty = Types.Vec (2, ty) in
          let pv = "inj.lw." ^ def and wide = "inj.lv." ^ def in
          Pass.Expand
            [ { Instr.def = Some pv; ins = Bitcast (Types.Ptr ty, p, Types.Ptr vty) };
              { Instr.def = Some wide; ins = Load (vty, Var pv) };
              { named with
                ins = Extractelement (vty, Var wide, Const (Constant.of_int ~width:32 0));
              };
            ]
        | _ -> Pass.Keep)
      | _ -> Pass.Keep)

(* Heap-to-stack promotion: call @malloc(n) => call @alloca(n).  In the
   infinite phase the two are indistinguishable, but under a finite
   memory (Beck et al.) an exhausted malloc returns null — the program
   can test and survive — while an exhausted alloca is UB.  Refuted by
   the enumeration checker's finite phases. *)
let malloc_to_alloca =
  peephole (fun _fn named ->
      match named.ins with
      | Call (Some rty, "malloc", args) -> Pass.Replace_ins (Call (Some rty, "alloca", args))
      | _ -> Pass.Keep)

(* Demote a pointer-typed store to an integer store of the cast address:
   store ty* v, pp => store i32 (ptrtoint v) through a bitcast of pp.
   The address bits are identical, but the stored bytes lose their
   provenance (Prov_alloc => Prov_none) — exactly the information the
   byte type of Beck et al. exists to preserve.  Observable through the
   memory fingerprint. *)
let store_ptr_int (fn : Func.t) : Func.t =
  let k = ref 0 in
  let expand (b : Func.block) =
    { b with
      Func.insns =
        List.concat_map
          (fun (n : Instr.named) ->
            match n.Instr.ins with
            | Store ((Types.Ptr _ as pty), v, pp) ->
              incr k;
              let i = Printf.sprintf "inj.spi.i%d" !k
              and c = Printf.sprintf "inj.spi.c%d" !k in
              let ity = Types.Int Types.pointer_bits in
              [ { Instr.def = Some i; ins = Conv (Ptrtoint, pty, v, ity) };
                { Instr.def = Some c; ins = Bitcast (Types.Ptr pty, pp, Types.Ptr ity) };
                { Instr.def = None; ins = Store (ity, Var i, Var c) };
              ]
            | _ -> [ n ])
          b.Func.insns;
    }
  in
  { fn with Func.blocks = List.map expand fn.Func.blocks }

(* ------------------------------------------------------------------ *)
(* The catalog                                                         *)
(* ------------------------------------------------------------------ *)

let all_mode_names =
  [ "proposed"; "old-unswitch"; "old-gvn"; "old-langref"; "old-simplifycfg" ]

let old_mode_names = [ "old-unswitch"; "old-gvn"; "old-langref"; "old-simplifycfg" ]

let nondet_branch_modes = [ "old-unswitch"; "old-langref"; "old-simplifycfg" ]

let all : entry list =
  [ { name = "shl-nsw";
      section = "S10.2";
      doc = "shl x,1 => shl nsw x,1 (stale flag manufactures poison)";
      modes = all_mode_names;
      needs_undef = false;
      needs_cfg = false;
      needs_mem = false;
      backend = None;
      apply = shl_nsw;
    };
    { name = "udiv-exact";
      section = "S10.2";
      doc = "udiv x,y => udiv exact x,y (stale exact flag)";
      modes = all_mode_names;
      needs_undef = false;
      needs_cfg = false;
      needs_mem = false;
      backend = None;
      apply = udiv_exact;
    };
    { name = "mul2-add-dup";
      section = "S3.1";
      doc = "mul x,2 => add x,x (duplicates a use of undef)";
      modes = old_mode_names;
      needs_undef = true;
      needs_cfg = false;
      needs_mem = false;
      backend = None;
      apply = mul2_add_dup;
    };
    { name = "select-or-true";
      section = "S3.4";
      doc = "select c,true,x => or c,x (non-chosen arm's poison leaks)";
      modes = [ "proposed"; "old-unswitch"; "old-gvn"; "old-simplifycfg" ];
      needs_undef = false;
      needs_cfg = false;
      needs_mem = false;
      backend = None;
      apply = select_or_true;
    };
    { name = "select-and-false";
      section = "S3.4";
      doc = "select c,x,false => and c,x (dual of select-or-true)";
      modes = [ "proposed"; "old-unswitch"; "old-gvn"; "old-simplifycfg" ];
      needs_undef = false;
      needs_cfg = false;
      needs_mem = false;
      backend = None;
      apply = select_and_false;
    };
    { name = "select-undef-arm";
      section = "S3.4";
      doc = "select c,x,undef => x (PR31633: x may be poison)";
      modes = old_mode_names;
      needs_undef = true;
      needs_cfg = false;
      needs_mem = false;
      backend = None;
      apply = select_undef_arm;
    };
    { name = "freeze-hoist-nsw";
      section = "S5";
      doc = "freeze(add nsw x,y) => add nsw (freeze x),(freeze y)";
      modes = all_mode_names;
      needs_undef = false;
      needs_cfg = false;
      needs_mem = false;
      backend = None;
      apply = freeze_hoist_nsw;
    };
    { name = "gvn-freeze-elim";
      section = "S6";
      doc = "freeze x => x (GVN folding freeze away)";
      modes = all_mode_names;
      needs_undef = false;
      needs_cfg = false;
      needs_mem = false;
      backend = None;
      apply = gvn_freeze_elim;
    };
    { name = "reassoc-nsw";
      section = "S3.2";
      doc = "add nsw (add nsw a,b),c => add nsw a,(add nsw b,c)";
      modes = all_mode_names;
      needs_undef = false;
      needs_cfg = false;
      needs_mem = false;
      backend = None;
      apply = reassoc_nsw;
    };
    { name = "spec-div-hoist";
      section = "S3.3";
      doc = "hoist a guarded division into the entry block (LICM)";
      modes = all_mode_names;
      needs_undef = false;
      needs_cfg = true;
      needs_mem = false;
      backend = None;
      apply = spec_div_hoist;
    };
    { name = "gvn-eq-propagate";
      section = "S3.3";
      doc = "after br(icmp eq v,w), rewrite w to v in the then-branch";
      modes = nondet_branch_modes;
      needs_undef = false;
      needs_cfg = true;
      needs_mem = false;
      backend = None;
      apply = gvn_eq_propagate;
    };
    { name = "phi-select";
      section = "S3.4";
      doc = "empty diamond: phi => select in the join block";
      modes = [ "old-gvn"; "old-langref" ];
      needs_undef = false;
      needs_cfg = true;
      needs_mem = false;
      backend = None;
      apply = phi_to_select;
    };
    (* The memory family below is mode-independent (the bugs live in the
       memory model, not in poison/undef semantics), so a single
       proposed-mode lane suffices for the hunt. *)
    { name = "store-forward-alias";
      section = "S4.2";
      doc = "forward a store to a load across a store through an inttoptr alias";
      modes = [ "proposed" ];
      needs_undef = false;
      needs_cfg = false;
      needs_mem = true;
      backend = None;
      apply = store_forward_alias;
    };
    { name = "load-widen-oob";
      section = "S4.2";
      doc = "widen load i8 to load <2 x i8> without the allocation-size guard";
      modes = [ "proposed" ];
      needs_undef = false;
      needs_cfg = false;
      needs_mem = true;
      backend = None;
      apply = load_widen_oob;
    };
    { name = "malloc-to-alloca";
      section = "2404.16143";
      doc = "promote malloc to alloca (UB on exhaustion in the finite phase)";
      modes = [ "proposed" ];
      needs_undef = false;
      needs_cfg = false;
      needs_mem = true;
      backend = None;
      apply = malloc_to_alloca;
    };
    { name = "store-ptr-int";
      section = "2404.16143";
      doc = "store a pointer as its ptrtoint integer (erases byte provenance)";
      modes = [ "proposed" ];
      needs_undef = false;
      needs_cfg = false;
      needs_mem = true;
      backend = None;
      apply = store_ptr_int;
    };
    (* The backend family: miscompilations injected into the MIR rather
       than the IR (lib/backend/mir_inject), hunted by compiling each
       generated program with the bug and asking the lowering TV
       (lib/backend/tv) whether that compile still refines.  Mode-independent — TV
       always interprets the source under the proposed semantics. *)
    { name = "drop-parallel-move-copy";
      section = "2402.05256";
      doc = "phi elimination loses one copy of a parallel move";
      modes = [ "proposed" ];
      needs_undef = false;
      needs_cfg = false;
      needs_mem = false;
      backend = Some "drop-parallel-move-copy";
      apply = Fun.id;
    };
    { name = "swap-without-temp";
      section = "2402.05256";
      doc = "parallel-move temps forward-substituted away; swap cycles break";
      modes = [ "proposed" ];
      needs_undef = false;
      needs_cfg = false;
      needs_mem = false;
      backend = Some "swap-without-temp";
      apply = Fun.id;
    };
    { name = "cmov-stale-flags";
      section = "S10.2";
      doc = "select's Test deleted; Cmov reads stale or undefined flags";
      modes = [ "proposed" ];
      needs_undef = false;
      needs_cfg = false;
      needs_mem = false;
      backend = Some "cmov-stale-flags";
      apply = Fun.id;
    };
    { name = "spill-slot-alias";
      section = "2402.05256";
      doc = "all spill slots collapse onto slot 0";
      modes = [ "proposed" ];
      needs_undef = false;
      needs_cfg = false;
      needs_mem = false;
      backend = Some "spill-slot-alias";
      apply = Fun.id;
    };
    { name = "const-prop-bad-arm";
      section = "S3.3";
      doc = "compared constant propagated into the not-equal arm of a protected branch";
      modes = [ "proposed" ];
      needs_undef = false;
      needs_cfg = false;
      needs_mem = false;
      backend = Some "const-prop-bad-arm";
      apply = Fun.id;
    };
  ]

let names = List.map (fun e -> e.name) all

let find name = List.find_opt (fun e -> e.name = name) all

let find_exn name =
  match find name with
  | Some e -> e
  | None ->
    invalid_arg
      (Printf.sprintf "unknown injected-bug entry %S (valid: %s)" name
         (String.concat ", " names))

(* The pass: apply every enabled entry, in catalog order.  Identity when
   [cfg.inject] is empty, so pipelines can include it unconditionally. *)
let pass : Pass.t =
  { Pass.name = "inject";
    run =
      (fun cfg fn ->
        List.fold_left
          (fun fn name -> (find_exn name).apply fn)
          fn cfg.Pass.inject);
  }
