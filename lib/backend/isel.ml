(* Instruction selection: IR -> MIR over virtual registers.

   Design notes mirroring Section 6:
   - [freeze] selects to a register copy;
   - [poison]/[undef] constants select to a pinned undef register
     ([Undef_def]), live for the duration of their uses;
   - vector values are legalized to one virtual register per lane (LLVM's
     backend scalarizes small vectors the same way), so the vector load
     widening of Section 5.4 ends up as the same scalar loads it started
     from — "at assembly level it is still the same load";
   - a compare whose single use is the block's terminator fuses with the
     branch (Cmp+Jcc, no Setcc) — but ONLY if it is the last instruction
     of the block, which is what CodeGenPrepare's compare sinking buys;
   - phi elimination inserts parallel-safe copies in predecessors. *)

open Ub_support
open Ub_ir
open Instr

exception Unsupported of string

type env = {
  mutable vmap : (Instr.var * Mir.reg array) list;
  func : Mir.func;
  ir : Func.t;
}

let fresh_vreg (f : Mir.func) =
  let r = Mir.Vreg f.Mir.nvregs in
  f.Mir.nvregs <- f.Mir.nvregs + 1;
  r

let width_of_ty ty = Mir.width_of_bits (Types.bitwidth (Types.element ty))

let class_bits = function Mir.W8 -> 8 | Mir.W16 -> 16 | Mir.W32 -> 32 | Mir.W64 -> 64

let is_signed_pred = function
  | Sgt | Sge | Slt | Sle -> true
  | Eq | Ne | Ugt | Uge | Ult | Ule -> false

let lanes_of_ty = function
  | Types.Vec (n, _) -> n
  | _ -> 1

let lookup env v =
  match List.assoc_opt v env.vmap with
  | Some rs -> rs
  | None -> raise (Unsupported (Printf.sprintf "isel: unbound %%%s" v))

let bind env v rs = env.vmap <- (v, rs) :: env.vmap

(* Lower an operand to registers (one per lane), emitting code for
   constants.  Poison/undef become pinned undef registers. *)
let operand_regs env emit (op : operand) : Mir.reg array =
  match op with
  | Var v -> lookup env v
  | Const c ->
    let rec regs_of_const (c : Constant.t) : Mir.reg array =
      match c with
      | Constant.Int bv ->
        let r = fresh_vreg env.func in
        emit (Mir.Mov (Mir.width_of_bits (Bitvec.width bv), r, Mir.Imm (Bitvec.to_uint64 bv)));
        [| r |]
      | Constant.Null _ ->
        let r = fresh_vreg env.func in
        emit (Mir.Mov (Mir.W32, r, Mir.Imm 0L));
        [| r |]
      | Constant.Undef _ | Constant.Poison _ ->
        let n = lanes_of_ty (Constant.ty c) in
        Array.init n (fun _ ->
            let r = fresh_vreg env.func in
            emit (Mir.Undef_def r);
            r)
      | Constant.Vec (_, cs) ->
        Array.concat (List.map regs_of_const cs)
    in
    regs_of_const c

let binkind_of = function
  | Add -> Some Mir.BAdd
  | Sub -> Some Mir.BSub
  | Mul -> Some Mir.BImul
  | And -> Some Mir.BAnd
  | Or -> Some Mir.BOr
  | Xor -> Some Mir.BXor
  | Shl -> Some Mir.BShl
  | LShr -> Some Mir.BShr
  | AShr -> Some Mir.BSar
  | UDiv | SDiv | URem | SRem -> None

(* Is [v]'s single use the terminator of [b]?  Then its icmp can fuse. *)
let only_use_is_terminator (fn : Func.t) (b : Func.block) (v : Instr.var) =
  Func.use_count fn v = 1
  &&
  match b.term with
  | Cond_br (Var c, _, _) -> c = v
  | _ -> false

let lower_func (fn : Func.t) : Mir.func =
  let mf = { Mir.mname = fn.Func.name; blocks = []; nvregs = 0; nslots = 0 } in
  let env = { vmap = []; func = mf; ir = fn } in
  (* Narrow-integer legalization.  An iN value whose width N is below its
     register class keeps garbage bits above bit N-1 — two-address ops
     only maintain the low N bits.  Consumers whose result depends on the
     full class-width value (compares, divisions, shift inputs and
     counts, extensions, addresses, allocation sizes) re-normalize their
     inputs: [zext_reg] masks the high bits to zero, [sext_reg]
     replicates bit N-1. *)
  let zext_reg emit w bits r =
    if bits >= class_bits w then r
    else begin
      let t = fresh_vreg mf in
      emit (Mir.Mov (w, t, Mir.Reg r));
      emit (Mir.Bin (Mir.BAnd, w, t, Mir.Imm (Bitvec.mask_of_width bits)));
      t
    end
  in
  let sext_reg emit w bits r =
    if bits >= class_bits w then r
    else begin
      let t = fresh_vreg mf in
      let sh = Int64.of_int (class_bits w - bits) in
      emit (Mir.Mov (w, t, Mir.Reg r));
      emit (Mir.Bin (Mir.BShl, w, t, Mir.Imm sh));
      emit (Mir.Bin (Mir.BSar, w, t, Mir.Imm sh));
      t
    end
  in
  let norm_reg emit ~signed w bits r =
    if signed then sext_reg emit w bits r else zext_reg emit w bits r
  in
  (* An i1 condition register holds exactly 0/1 only when it comes from a
     Setcc or a constant; truncs, phis, selects and arguments may carry
     garbage above bit 0 and must be masked before a full-byte Test. *)
  let cond_reg emit (c : operand) r =
    let exact =
      match c with
      | Const _ -> true
      | Var v ->
        List.exists
          (fun (b : Func.block) ->
            List.exists
              (fun n ->
                n.Instr.def = Some v
                && (match n.Instr.ins with Icmp _ -> true | _ -> false))
              b.Func.insns)
          fn.Func.blocks
    in
    if exact then r else zext_reg emit Mir.W8 1 r
  in
  (* arguments get the first vregs *)
  List.iter
    (fun (a, ty) ->
      let n = lanes_of_ty ty in
      bind env a (Array.init n (fun _ -> fresh_vreg mf)))
    fn.Func.args;
  (* pre-assign result registers to every instruction def so that phis
     and forward refs work *)
  List.iter
    (fun (b : Func.block) ->
      List.iter
        (fun n ->
          match (n.Instr.def, Instr.result_ty n.Instr.ins) with
          | Some d, Some ty -> bind env d (Array.init (lanes_of_ty ty) (fun _ -> fresh_vreg mf))
          | _ -> ())
        b.insns)
    fn.Func.blocks;
  (* lower each block *)
  let mblocks =
    List.map
      (fun (b : Func.block) ->
        let code = ref [] in
        let emit i = code := i :: !code in
        let fused_cmp = ref None in
        let n_insns = List.length b.insns in
        List.iteri
          (fun idx { Instr.def; ins } ->
            let dst () = (lookup env (Option.get def)).(0) in
            match ins with
            | Phi _ -> () (* handled via predecessor copies *)
            | Binop (op, _, ty, a, b') -> (
              let w = width_of_ty ty in
              let lanes = lanes_of_ty ty in
              let ra = operand_regs env emit a in
              match binkind_of op with
              | Some k ->
                let rb =
                  match b' with
                  | Const (Constant.Int _) when lanes = 1 -> [||]
                  | _ -> operand_regs env emit b'
                in
                let bits = Types.bitwidth (Types.element ty) in
                for l = 0 to lanes - 1 do
                  let d = (lookup env (Option.get def)).(l) in
                  let lhs =
                    match k with
                    | Mir.BShr -> zext_reg emit w bits ra.(l)
                    | Mir.BSar -> sext_reg emit w bits ra.(l)
                    | _ -> ra.(l)
                  in
                  emit (Mir.Mov (w, d, Mir.Reg lhs));
                  let src =
                    match b' with
                    | Const (Constant.Int bv) -> Mir.Imm (Bitvec.to_uint64 bv)
                    | _ -> Mir.Reg rb.(l)
                  in
                  let src =
                    match (k, src) with
                    | (Mir.BShl | Mir.BShr | Mir.BSar), Mir.Reg r ->
                      Mir.Reg (zext_reg emit w bits r)
                    | _ -> src
                  in
                  emit (Mir.Bin (k, w, d, src))
                done
              | None ->
                (* division: quotient in one reg, remainder in another *)
                let rb = operand_regs env emit b' in
                let bits = Types.bitwidth (Types.element ty) in
                let signed = op = SDiv || op = SRem in
                for l = 0 to lanes - 1 do
                  let d = (lookup env (Option.get def)).(l) in
                  let other = fresh_vreg mf in
                  let quot, rem =
                    match op with
                    | UDiv | SDiv -> (d, other)
                    | URem | SRem -> (other, d)
                    | _ -> assert false
                  in
                  emit
                    (Mir.Div
                       { signed;
                         width = w;
                         dst_quot = quot;
                         dst_rem = rem;
                         lhs = norm_reg emit ~signed w bits ra.(l);
                         rhs = norm_reg emit ~signed w bits rb.(l);
                       })
                done)
            | Icmp (pred, ty, a, b') ->
              let w = width_of_ty ty in
              let bits = Types.bitwidth (Types.element ty) in
              let signed = is_signed_pred pred in
              let norm_val (op : operand) : Mir.operand =
                match op with
                | Const (Constant.Int bv) ->
                  let bv = if signed then Bitvec.sext bv ~width:(class_bits w) else bv in
                  Mir.Imm (Bitvec.to_uint64 bv)
                | _ -> Mir.Reg (norm_reg emit ~signed w bits (operand_regs env emit op).(0))
              in
              let d = Option.get def in
              if idx = n_insns - 1 && only_use_is_terminator fn b d then begin
                (* fuse with the terminator: emit nothing now *)
                let ra = norm_reg emit ~signed w bits (operand_regs env emit a).(0) in
                let vb = norm_val b' in
                fused_cmp := Some (d, Mir.cond_of_pred pred, w, ra, vb)
              end
              else begin
                let ra = norm_reg emit ~signed w bits (operand_regs env emit a).(0) in
                let vb = norm_val b' in
                emit (Mir.Cmp (w, ra, vb));
                emit (Mir.Setcc (Mir.cond_of_pred pred, dst ()))
              end
            | Select (c, ty, a, b') ->
              let w = width_of_ty ty in
              let lanes = lanes_of_ty ty in
              let rc = operand_regs env emit c in
              let ra = operand_regs env emit a in
              let rb = operand_regs env emit b' in
              for l = 0 to lanes - 1 do
                let d = (lookup env (Option.get def)).(l) in
                let cl = rc.(if Array.length rc = lanes then l else 0) in
                let cl = cond_reg emit c cl in
                emit (Mir.Mov (w, d, Mir.Reg rb.(l)));
                emit (Mir.Test (Mir.W8, cl, cl));
                emit (Mir.Cmov (Mir.CNe, w, d, ra.(l)))
              done
            | Conv (op, from, x, to_) ->
              let fw = width_of_ty from and tw = width_of_ty to_ in
              let fbits = Types.bitwidth (Types.element from) in
              let rx = operand_regs env emit x in
              Array.iteri
                (fun l d ->
                  match op with
                  | Sext ->
                    let s = sext_reg emit fw fbits rx.(l) in
                    if fw = tw then emit (Mir.Copy (tw, d, s))
                    else emit (Mir.Movsx { dst = d; src = s; from_w = fw; to_w = tw })
                  | Zext ->
                    let s = zext_reg emit fw fbits rx.(l) in
                    if fw = tw then emit (Mir.Copy (tw, d, s))
                    else emit (Mir.Movzx { dst = d; src = s; from_w = fw; to_w = tw })
                  | Trunc -> emit (Mir.Copy (tw, d, rx.(l)))
                  | Ptrtoint | Inttoptr ->
                    (* address bits move unchanged: zero-extend when
                       widening, plain copy otherwise *)
                    let s = zext_reg emit fw fbits rx.(l) in
                    if tw > fw then emit (Mir.Movzx { dst = d; src = s; from_w = fw; to_w = tw })
                    else emit (Mir.Copy (tw, d, s)))
                (lookup env (Option.get def))
            | Bitcast (_, x, to_) ->
              (* same-width reinterpretation: lane-wise copies when the
                 lane structure matches, else unsupported *)
              let rx = operand_regs env emit x in
              let dsts = lookup env (Option.get def) in
              if Array.length rx <> Array.length dsts then
                raise (Unsupported "isel: bitcast changing lane structure");
              Array.iteri (fun l d -> emit (Mir.Copy (width_of_ty to_, d, rx.(l)))) dsts
            | Freeze (ty, x) ->
              (* THE lowering of the paper: freeze = register copy *)
              let rx = operand_regs env emit x in
              Array.iteri
                (fun l d -> emit (Mir.Copy (width_of_ty ty, d, rx.(l))))
                (lookup env (Option.get def))
            | Gep { pointee; base; indices; _ } -> (
              let rb = (operand_regs env emit base).(0) in
              let d = dst () in
              let size = Types.store_size pointee in
              match indices with
              | [ (_, idx) ] when size = 1 || size = 2 || size = 4 || size = 8 -> (
                match idx with
                | Const (Constant.Int bv) ->
                  emit
                    (Mir.Lea
                       { dst = d;
                         addr =
                           { Mir.base = rb; index = None; scale = 1;
                             disp = (match Bitvec.to_uint_opt bv with Some i -> i * size | None -> 0);
                           };
                       })
                | _ ->
                  let ity = fst (List.hd indices) in
                  let ri = (operand_regs env emit idx).(0) in
                  let ri = zext_reg emit (width_of_ty ity) (Types.bitwidth (Types.element ity)) ri in
                  emit
                    (Mir.Lea
                       { dst = d;
                         addr = { Mir.base = rb; index = Some ri; scale = size; disp = 0 };
                       }))
              | _ ->
                (* general case: mul + add per index *)
                emit (Mir.Mov (Mir.W32, d, Mir.Reg rb));
                List.iter
                  (fun (ity, idx) ->
                    let ri = (operand_regs env emit idx).(0) in
                    let ri = zext_reg emit (width_of_ty ity) (Types.bitwidth (Types.element ity)) ri in
                    let tmp = fresh_vreg mf in
                    emit (Mir.Mov (Mir.W32, tmp, Mir.Reg ri));
                    emit (Mir.Bin (Mir.BImul, Mir.W32, tmp, Mir.Imm (Int64.of_int size)));
                    emit (Mir.Bin (Mir.BAdd, Mir.W32, d, Mir.Reg tmp)))
                  indices)
            | Load (ty, p) ->
              let rp = (operand_regs env emit p).(0) in
              let lanes = lanes_of_ty ty in
              let lane_bytes = Types.store_size (Types.element ty) in
              Array.iteri
                (fun l d ->
                  emit
                    (Mir.Load
                       ( width_of_ty ty,
                         d,
                         { Mir.base = rp; index = None; scale = 1; disp = l * lane_bytes } )))
                (Array.init lanes (fun l -> (lookup env (Option.get def)).(l)))
            | Store (ty, v, p) ->
              let rp = (operand_regs env emit p).(0) in
              let rv = operand_regs env emit v in
              let lanes = lanes_of_ty ty in
              let lane_bytes = Types.store_size (Types.element ty) in
              for l = 0 to lanes - 1 do
                emit
                  (Mir.Store
                     ( width_of_ty ty,
                       { Mir.base = rp; index = None; scale = 1; disp = l * lane_bytes },
                       Mir.Reg rv.(l) ))
              done
            | Call (_, callee, args) ->
              let arg_regs =
                List.map
                  (fun (ty, a) ->
                    let r = (operand_regs env emit a).(0) in
                    zext_reg emit (width_of_ty ty) (Types.bitwidth (Types.element ty)) r)
                  args
              in
              let res = Option.map (fun d -> (lookup env d).(0)) def in
              emit (Mir.Call (callee, arg_regs, res))
            | Extractelement (vty, v, i) -> (
              let rv = operand_regs env emit v in
              match i with
              | Const (Constant.Int bv) ->
                let idx = Bitvec.to_uint_exn bv in
                let idx = if idx < Array.length rv then idx else 0 in
                emit (Mir.Copy (width_of_ty (Types.element vty), dst (), rv.(idx)))
              | _ -> raise (Unsupported "isel: extractelement with variable index"))
            | Insertelement (vty, v, e, i) -> (
              let rv = operand_regs env emit v in
              let re = (operand_regs env emit e).(0) in
              let dsts = lookup env (Option.get def) in
              match i with
              | Const (Constant.Int bv) ->
                let idx = Bitvec.to_uint_exn bv in
                Array.iteri
                  (fun l d ->
                    emit
                      (Mir.Copy
                         (width_of_ty (Types.element vty), d, if l = idx then re else rv.(l))))
                  dsts
              | _ -> raise (Unsupported "isel: insertelement with variable index")))
          b.insns;
        (* terminator *)
        (match b.term with
        | Ret (_, x) ->
          let r = (operand_regs env emit x).(0) in
          emit (Mir.Ret (Some r))
        | Ret_void -> emit (Mir.Ret None)
        | Br l -> emit (Mir.Jmp l)
        | Cond_br (c, t, e) -> (
          match !fused_cmp with
          | Some (cv, cond, w, ra, vb) when c = Var cv ->
            emit (Mir.Cmp (w, ra, vb));
            emit (Mir.Jcc (cond, t));
            emit (Mir.Jmp e)
          | _ ->
            let rc = (operand_regs env emit c).(0) in
            let rc = cond_reg emit c rc in
            emit (Mir.Test (Mir.W8, rc, rc));
            emit (Mir.Jcc (Mir.CNe, t));
            emit (Mir.Jmp e))
        | Unreachable -> emit (Mir.Ret None));
        { Mir.mlabel = b.Func.label; insts = List.rev !code })
      fn.Func.blocks
  in
  mf.Mir.blocks <- mblocks;
  (* phi elimination: copies in predecessors, with temporaries to make
     the parallel-copy semantics safe.  Copies must execute only when
     the edge is actually taken: a predecessor with a single successor
     takes them inline before its terminator, but a critical edge (the
     predecessor branches) gets a dedicated edge block — splicing the
     copies before a conditional branch would run them on the *other*
     edge too (and clobber any phi destination the fused compare
     reads). *)
  List.iter
    (fun (b : Func.block) ->
      let phis =
        List.filter_map
          (fun n ->
            match (n.Instr.def, n.Instr.ins) with
            | Some d, Phi (ty, inc) -> Some (d, ty, inc)
            | _ -> None)
          b.insns
      in
      if phis <> [] then
        List.iter
          (fun (pred : Func.block) ->
            if List.mem b.Func.label (Instr.successors pred.Func.term) then begin
              let mb = List.find (fun mb -> mb.Mir.mlabel = pred.Func.label) mf.Mir.blocks in
              let copies_in = ref [] and copies_out = ref [] in
              List.iter
                (fun (d, ty, inc) ->
                  match List.assoc_opt pred.Func.label (List.map (fun (v, l) -> (l, v)) inc) with
                  | Some src ->
                    let w = width_of_ty ty in
                    let lanes = lanes_of_ty ty in
                    let emit_tmp i = copies_in := i :: !copies_in in
                    let srcs = operand_regs env emit_tmp src in
                    for l = 0 to lanes - 1 do
                      let tmp = fresh_vreg mf in
                      copies_in := Mir.Copy (w, tmp, srcs.(l)) :: !copies_in;
                      copies_out := Mir.Copy (w, (lookup env d).(l), tmp) :: !copies_out
                    done
                  | None -> ())
                phis;
              let copies = List.rev !copies_in @ List.rev !copies_out in
              match Instr.successors pred.Func.term with
              | [] | [ _ ] ->
                (* single successor: splice before the terminator group *)
                let rec split_term acc = function
                  | [] -> (List.rev acc, [])
                  | rest
                    when (match rest with
                         | Mir.Cmp _ :: Mir.Jcc _ :: _ -> true
                         | Mir.Test _ :: Mir.Jcc _ :: _ -> true
                         | Mir.Jcc _ :: _ | Mir.Jmp _ :: _ | Mir.Ret _ :: _ -> true
                         | _ -> false) ->
                    (List.rev acc, rest)
                  | i :: rest -> split_term (i :: acc) rest
                in
                let body, term = split_term [] mb.Mir.insts in
                mb.Mir.insts <- body @ copies @ term
              | _ ->
                (* critical edge: copies go in their own block *)
                let elabel = pred.Func.label ^ "$" ^ b.Func.label in
                let eb = { Mir.mlabel = elabel; insts = copies @ [ Mir.Jmp b.Func.label ] } in
                mf.Mir.blocks <- mf.Mir.blocks @ [ eb ];
                mb.Mir.insts <-
                  List.map
                    (function
                      | Mir.Jcc (c, l) when l = b.Func.label -> Mir.Jcc (c, elabel)
                      | Mir.Jmp l when l = b.Func.label -> Mir.Jmp elabel
                      | i -> i)
                    mb.Mir.insts
            end)
          fn.Func.blocks)
    fn.Func.blocks;
  mf
