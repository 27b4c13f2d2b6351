(* Loop-invariant code motion.

   Safe hoisting: speculatable loop-invariant instructions move to the
   preheader.  Instructions that only produce *deferred* UB when their
   original guard would have failed (add nsw etc.) are speculatable —
   this is the whole point of poison (Section 2.3).

   Division hoisting is where Section 3.2 / 5.6 bites:
   - hoisting a division whose divisor is a nonzero *constant* is safe;
   - the [Baseline] pipeline also hoists when isKnownToBeAPowerOfTwo
     says the divisor can't be zero — ignoring that the fact only holds
     *up to poison*.  If the divisor is poison and the loop never runs,
     the hoisted division is UB the original program did not have.  The
     checker catches this variant (test_matrix). *)

open Ub_support
open Ub_ir
open Instr
module A = Ub_analysis

let nonzero_constant (op : operand) =
  match op with
  | Const (Constant.Int bv) -> not (Bitvec.is_zero bv)
  | _ -> false

let hoistable (cfg : Pass.config) (fn : Func.t) (lp : A.Loops.loop) (ins : Instr.t) : bool =
  A.Loops.insn_invariant fn lp ins
  &&
  match ins with
  | Binop ((UDiv | URem), _, _, _, divisor) ->
    nonzero_constant divisor
    || (cfg.Pass.pipeline = Pass.Baseline && A.Known_bits.is_known_nonzero fn divisor)
  | Binop ((SDiv | SRem), _, _, _, divisor) ->
    (* also needs no INT_MIN/-1 trap: require a constant divisor other
       than -1 and 0 *)
    (match divisor with
    | Const (Constant.Int bv) -> (not (Bitvec.is_zero bv)) && not (Bitvec.is_all_ones bv)
    | _ -> false)
  | Freeze _ -> true (* movable (not duplicated) out of loops: fine *)
  | Phi _ -> false
  | ins -> Instr.speculatable ins && not (Instr.has_side_effects ins)

let run (cfg : Pass.config) (fn : Func.t) : Func.t =
  let loops = A.Loops.compute fn in
  List.fold_left
    (fun fn (lp : A.Loops.loop) ->
      match lp.preheader with
      | None -> fn
      | Some ph ->
        (* single upward pass per loop: hoist instructions whose operands
           are invariant (including previously hoisted ones) *)
        let hoisted = ref [] in
        let fn' =
          { fn with
            Func.blocks =
              List.map
                (fun (b : Func.block) ->
                  if not (List.mem b.label lp.blocks) then b
                  else
                    { b with
                      insns =
                        List.filter
                          (fun n ->
                            if hoistable cfg fn lp n.Instr.ins && n.Instr.def <> None then begin
                              hoisted := n :: !hoisted;
                              false
                            end
                            else true)
                          b.insns;
                    })
                fn.blocks;
          }
        in
        if !hoisted = [] then fn
        else
          { fn' with
            Func.blocks =
              List.map
                (fun (b : Func.block) ->
                  if b.label = ph then { b with insns = b.insns @ List.rev !hoisted } else b)
                fn'.blocks;
          })
    fn loops.A.Loops.loops

let pass : Pass.t = { Pass.name = "licm"; run }
