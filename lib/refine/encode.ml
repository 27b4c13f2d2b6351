(* SMT encoding of a loop-free, scalar-integer IR function under a
   semantics mode, in the style of Alive's VCGen (the paper validates its
   prototype exactly this way, Section 6).

   Every register is a triple (value bits, poison flag, undef flag).
   Each *use* in an arithmetic context materializes undef through a fresh
   choice; [freeze] consumes one choice per instruction; Branch_nondet
   modes consume one boolean choice per branch that can see poison.
   Whether those choices are universally or existentially quantified is
   the caller's business (source choices are expanded universally,
   target choices are plain existentials) — the encoder just calls the
   provided [choice] callback.

   Functions with loops, memory operations, calls, vectors or pointers
   are not encodable here; the enumeration checker covers those. *)

open Ub_ir
open Ub_sem
open Ub_smt
open Instr

exception Unsupported of string

let unsupported fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt

type sym = {
  v : Bvterm.t; (* value bits, LSB first *)
  p : Circuit.t; (* is poison *)
  u : Circuit.t; (* is undef (old modes only) *)
}

(* A potential choice site: [cond] is the circuit under which the
   nondeterministic value is actually observable (the undef flag of a
   use, the poison flag of a branched-on condition, ...).  The provider
   returns [None] to decline materialization — the site then keeps the
   plain value.  The checker's providers decline exactly the sites whose
   [cond] is constant false, which can never observe the choice. *)
type choice_fn = { choose : width:int -> cond:Circuit.t -> Bvterm.t option }

type fenc = {
  ub : Circuit.t; (* the execution triggers immediate UB *)
  ret : sym option; (* muxed return value (None for ret void) *)
}

let int_width (ty : Types.t) =
  match ty with
  | Types.Int w -> w
  | _ -> unsupported "non-integer type %s" (Types.to_string ty)

(* Topological order of blocks; raises if the CFG has a cycle. *)
let topo_order (fn : Func.t) : Func.block list =
  let visited = Hashtbl.create 16 in
  let order = ref [] in
  let rec visit (b : Func.block) =
    match Hashtbl.find_opt visited b.label with
    | Some `Done -> ()
    | Some `Active -> unsupported "function @%s has a loop" fn.name
    | None ->
      Hashtbl.replace visited b.label `Active;
      List.iter (fun s -> visit (Func.find_block_exn fn s)) (Instr.successors b.term);
      Hashtbl.replace visited b.label `Done;
      order := b :: !order
  in
  visit (Func.entry fn);
  !order

let encode (ctx : Circuit.ctx) (mode : Mode.t) (choice : choice_fn)
    ~(args : (var * sym) list) (fn : Func.t) : fenc =
  let blocks = topo_order fn in
  let env : (var, sym) Hashtbl.t = Hashtbl.create 32 in
  List.iter (fun (v, s) -> Hashtbl.replace env v s) args;
  let reach : (label, Circuit.t) Hashtbl.t = Hashtbl.create 16 in
  let edges : (label * label, Circuit.t) Hashtbl.t = Hashtbl.create 16 in
  Hashtbl.replace reach (Func.entry fn).label Circuit.btrue;
  let ub = ref Circuit.bfalse in
  let rets : (Circuit.t * sym option) list ref = ref [] in
  let add_ub cond reach_b = ub := Circuit.bor ctx !ub (Circuit.band ctx reach_b cond) in

  let sym_of_const (c : Constant.t) : sym =
    match c with
    | Constant.Int bv -> { v = Bvterm.const ctx bv; p = Circuit.bfalse; u = Circuit.bfalse }
    | Constant.Undef ty ->
      let w = int_width ty in
      if mode.Mode.undef_enabled then
        { v = Bvterm.zero ctx ~width:w; p = Circuit.bfalse; u = Circuit.btrue }
      else { v = Bvterm.zero ctx ~width:w; p = Circuit.btrue; u = Circuit.bfalse }
    | Constant.Poison ty ->
      let w = int_width ty in
      { v = Bvterm.zero ctx ~width:w; p = Circuit.btrue; u = Circuit.bfalse }
    | Constant.Null _ | Constant.Vec _ -> unsupported "pointer/vector constant"
  in
  let sym_of_operand (op : operand) : sym =
    match op with
    | Var v -> (
      match Hashtbl.find_opt env v with
      | Some s -> s
      | None -> invalid_arg (Printf.sprintf "Encode: unbound %%%s" v))
    | Const c -> sym_of_const c
  in
  (* One *use* of a sym in an arithmetic context: materialize undef. *)
  let use (s : sym) : Bvterm.t * Circuit.t =
    let w = Bvterm.width s.v in
    match choice.choose ~width:w ~cond:s.u with
    | None -> (s.v, s.p)
    | Some c -> (Bvterm.ite ctx s.u c s.v, s.p)
  in
  let bool_of (s : sym) : Circuit.t * Circuit.t =
    (* materialized i1 use: (bit, poison) *)
    let v, p = use s in
    (v.(0), p)
  in

  let encode_binop op (attrs : attrs) ty a b reach_b : sym =
    let w = int_width ty in
    let va, pa = use a in
    let vb, pb = use b in
    match op with
    | UDiv | SDiv | URem | SRem ->
      let div_zero = Bvterm.is_zero ctx vb in
      let sdiv_ovf =
        match op with
        | SDiv | SRem -> Bvterm.sdiv_overflows ctx va vb
        | _ -> Circuit.bfalse
      in
      let ub_local =
        if mode.Mode.div_by_poison_ub then
          Circuit.bor ctx pb
            (Circuit.band ctx (Circuit.bnot ctx pb)
               (Circuit.bor ctx div_zero (Circuit.band ctx (Circuit.bnot ctx pa) sdiv_ovf)))
        else
          Circuit.band ctx (Circuit.bnot ctx pb)
            (Circuit.bor ctx div_zero (Circuit.band ctx (Circuit.bnot ctx pa) sdiv_ovf))
      in
      add_ub ub_local reach_b;
      let p_res =
        Circuit.bor ctx pa (if mode.Mode.div_by_poison_ub then Circuit.bfalse else pb)
      in
      let exact_p =
        if attrs.exact then
          match op with
          | UDiv -> Circuit.bnot ctx (Bvterm.is_zero ctx (Bvterm.urem ctx va vb))
          | SDiv -> Circuit.bnot ctx (Bvterm.is_zero ctx (Bvterm.srem ctx va vb))
          | _ -> Circuit.bfalse
        else Circuit.bfalse
      in
      let value =
        match op with
        | UDiv -> Bvterm.udiv ctx va vb
        | SDiv -> Bvterm.sdiv ctx va vb
        | URem -> Bvterm.urem ctx va vb
        | SRem -> Bvterm.srem ctx va vb
        | _ -> assert false
      in
      { v = value; p = Circuit.bor ctx p_res exact_p; u = Circuit.bfalse }
    | Shl | LShr | AShr ->
      let oob = Bvterm.shift_oob ctx va vb in
      let value =
        match op with
        | Shl -> Bvterm.shl ctx va vb
        | LShr -> Bvterm.lshr ctx va vb
        | AShr -> Bvterm.ashr ctx va vb
        | _ -> assert false
      in
      let attr_p =
        Circuit.big_or ctx
          [ (if attrs.nsw && op = Shl then Bvterm.shl_nsw_overflows ctx va vb else Circuit.bfalse);
            (if attrs.nuw && op = Shl then Bvterm.shl_nuw_overflows ctx va vb else Circuit.bfalse);
            (if attrs.exact && op = LShr then Bvterm.lshr_exact_violated ctx va vb
             else Circuit.bfalse);
            (if attrs.exact && op = AShr then Bvterm.ashr_exact_violated ctx va vb
             else Circuit.bfalse);
          ]
      in
      let p_in = Circuit.bor ctx pa pb in
      if mode.Mode.undef_enabled then
        (* in-range: normal; out-of-range: undef *)
        { v = value;
          p = Circuit.bor ctx p_in (Circuit.band ctx (Circuit.bnot ctx oob) attr_p);
          u = Circuit.band ctx (Circuit.bnot ctx p_in) oob;
        }
      else
        { v = value;
          p = Circuit.big_or ctx [ p_in; oob; attr_p ];
          u = Circuit.bfalse;
        }
    | Add | Sub | Mul ->
      let value, ovf_nsw, ovf_nuw =
        match op with
        | Add ->
          (Bvterm.add ctx va vb, Bvterm.add_nsw_overflows ctx va vb,
           Bvterm.add_nuw_overflows ctx va vb)
        | Sub ->
          (Bvterm.sub ctx va vb, Bvterm.sub_nsw_overflows ctx va vb,
           Bvterm.sub_nuw_overflows ctx va vb)
        | Mul ->
          (Bvterm.mul ctx va vb, Bvterm.mul_nsw_overflows ctx va vb,
           Bvterm.mul_nuw_overflows ctx va vb)
        | _ -> assert false
      in
      let attr_p =
        Circuit.bor ctx
          (if attrs.nsw then ovf_nsw else Circuit.bfalse)
          (if attrs.nuw then ovf_nuw else Circuit.bfalse)
      in
      ignore w;
      { v = value; p = Circuit.big_or ctx [ pa; pb; attr_p ]; u = Circuit.bfalse }
    | And | Or | Xor ->
      let value =
        match op with
        | And -> Bvterm.logand ctx va vb
        | Or -> Bvterm.logor ctx va vb
        | Xor -> Bvterm.logxor ctx va vb
        | _ -> assert false
      in
      { v = value; p = Circuit.bor ctx pa pb; u = Circuit.bfalse }
  in

  let encode_icmp pred a b : sym =
    let va, pa = use a in
    let vb, pb = use b in
    let bit =
      match pred with
      | Eq -> Bvterm.eq ctx va vb
      | Ne -> Bvterm.ne ctx va vb
      | Ugt -> Bvterm.ugt ctx va vb
      | Uge -> Bvterm.uge ctx va vb
      | Ult -> Bvterm.ult ctx va vb
      | Ule -> Bvterm.ule ctx va vb
      | Sgt -> Bvterm.sgt ctx va vb
      | Sge -> Bvterm.sge ctx va vb
      | Slt -> Bvterm.slt ctx va vb
      | Sle -> Bvterm.sle ctx va vb
    in
    { v = [| bit |]; p = Circuit.bor ctx pa pb; u = Circuit.bfalse }
  in

  let encode_select c a b reach_b : sym =
    let sc = sym_of_operand c and sa = sym_of_operand a and sb = sym_of_operand b in
    let cbit, cp = bool_of sc in
    let mux cond =
      { v = Bvterm.ite ctx cond sa.v sb.v;
        p = Circuit.bite ctx cond sa.p sb.p;
        u = Circuit.bite ctx cond sa.u sb.u;
      }
    in
    match mode.Mode.select_sem with
    | Mode.Select_conditional ->
      let m = mux cbit in
      { m with p = Circuit.bor ctx cp m.p; u = Circuit.band ctx (Circuit.bnot ctx cp) m.u }
    | Mode.Select_nondet_cond ->
      let nd =
        match choice.choose ~width:1 ~cond:cp with
        | None -> cbit
        | Some ch -> Circuit.bite ctx cp ch.(0) cbit
      in
      mux nd
    | Mode.Select_ub_cond ->
      add_ub cp reach_b;
      mux cbit
    | Mode.Select_arith ->
      let m = mux cbit in
      { v = m.v;
        p = Circuit.big_or ctx [ cp; sa.p; sb.p ];
        u = Circuit.band ctx (Circuit.bnot ctx (Circuit.big_or ctx [ cp; sa.p; sb.p ])) m.u;
      }
  in

  (* walk blocks in topological order *)
  List.iter
    (fun (b : Func.block) ->
      let reach_b =
        match Hashtbl.find_opt reach b.label with
        | Some r -> r
        | None -> Circuit.bfalse (* unreachable from entry *)
      in
      List.iter
        (fun { def; ins } ->
          let bind s = match def with Some d -> Hashtbl.replace env d s | None -> () in
          match ins with
          | Binop (op, attrs, ty, a, b') ->
            bind (encode_binop op attrs ty (sym_of_operand a) (sym_of_operand b') reach_b)
          | Icmp (pred, _, a, b') ->
            bind (encode_icmp pred (sym_of_operand a) (sym_of_operand b'))
          | Select (c, _, a, b') -> bind (encode_select c a b' reach_b)
          | Conv ((Ptrtoint | Inttoptr), _, _, _) ->
            (* pointer/integer casts need the memory model; the
               enumeration checker handles them *)
            unsupported "pointer/integer cast"
          | Conv (op, from, x, to_) ->
            let s = sym_of_operand x in
            let vx, px = use s in
            let tw = int_width to_ in
            ignore (int_width from);
            let v =
              match op with
              | Zext -> Bvterm.zext ctx vx ~width:tw
              | Sext -> Bvterm.sext ctx vx ~width:tw
              | Trunc -> Bvterm.trunc ctx vx ~width:tw
              | Ptrtoint | Inttoptr -> assert false
            in
            bind { v; p = px; u = Circuit.bfalse }
          | Bitcast (from, x, to_) ->
            (* int->int bitcast of same width is the identity *)
            let wf = int_width from and wt = int_width to_ in
            if wf <> wt then unsupported "bitcast between different widths";
            bind (sym_of_operand x)
          | Freeze (ty, x) ->
            let s = sym_of_operand x in
            let w = int_width ty in
            let bad = Circuit.bor ctx s.p s.u in
            (match choice.choose ~width:w ~cond:bad with
            | None -> bind s
            | Some c ->
              bind { v = Bvterm.ite ctx bad c s.v; p = Circuit.bfalse; u = Circuit.bfalse })
          | Phi (ty, incoming) ->
            let w = int_width ty in
            let init =
              { v = Bvterm.zero ctx ~width:w; p = Circuit.btrue; u = Circuit.bfalse }
            in
            let s =
              List.fold_left
                (fun acc (op, l) ->
                  (* An incoming with no materialized edge can never be
                     taken — the predecessor is unreachable (e.g. left
                     behind by constant-branch folding) or not a real
                     predecessor.  Skip it *without* touching the
                     operand: its def may live in an unvisited block. *)
                  match Hashtbl.find_opt edges (l, b.label) with
                  | None -> acc
                  | Some cond ->
                    let s = sym_of_operand op in
                    { v = Bvterm.ite ctx cond s.v acc.v;
                      p = Circuit.bite ctx cond s.p acc.p;
                      u = Circuit.bite ctx cond s.u acc.u;
                    })
                init incoming
            in
            bind s
          | Gep _ -> unsupported "getelementptr"
          | Load _ | Store _ -> unsupported "memory operation"
          | Call _ -> unsupported "call"
          | Extractelement _ | Insertelement _ -> unsupported "vector operation")
        b.insns;
      (* terminator *)
      let add_edge src dst cond =
        let cond = Circuit.band ctx reach_b cond in
        let prev =
          match Hashtbl.find_opt edges (src, dst) with Some e -> e | None -> Circuit.bfalse
        in
        Hashtbl.replace edges (src, dst) (Circuit.bor ctx prev cond);
        let r = match Hashtbl.find_opt reach dst with Some r -> r | None -> Circuit.bfalse in
        Hashtbl.replace reach dst (Circuit.bor ctx r cond)
      in
      match b.term with
      | Ret (_, x) -> rets := (reach_b, Some (sym_of_operand x)) :: !rets
      | Ret_void -> rets := (reach_b, None) :: !rets
      | Br l -> add_edge b.label l Circuit.btrue
      | Cond_br (c, t, e) ->
        let sc = sym_of_operand c in
        let cbit, cp = bool_of sc in
        let dir =
          match mode.Mode.branch_on_poison with
          | Mode.Branch_ub ->
            add_ub cp reach_b;
            cbit
          | Mode.Branch_nondet -> (
            match choice.choose ~width:1 ~cond:cp with
            | None -> cbit
            | Some ch -> Circuit.bite ctx cp ch.(0) cbit)
        in
        add_edge b.label t dir;
        add_edge b.label e (Circuit.bnot ctx dir)
      | Unreachable -> add_ub Circuit.btrue reach_b)
    blocks;
  (* mux the return value over returning paths *)
  let ret =
    match !rets with
    | [] -> None
    | (_, None) :: _ -> None
    | rs ->
      let some =
        List.filter_map (fun (c, s) -> match s with Some s -> Some (c, s) | None -> None) rs
      in
      (match some with
      | [] -> None
      | (_, s0) :: _ ->
        let w = Bvterm.width s0.v in
        let init = { v = Bvterm.zero ctx ~width:w; p = Circuit.btrue; u = Circuit.bfalse } in
        Some
          (List.fold_left
             (fun acc (c, s) ->
               { v = Bvterm.ite ctx c s.v acc.v;
                 p = Circuit.bite ctx c s.p acc.p;
                 u = Circuit.bite ctx c s.u acc.u;
               })
             init some))
  in
  { ub = !ub; ret }
