(* A miniature scalar evolution: recognizes affine induction variables
   {start, +, step} whose update is an add in the loop, and computes
   symbolic trip counts for the canonical `i <cmp> n` exit pattern.  Used
   by induction-variable widening (Figure 3) and by the loop passes'
   legality checks.

   Per Section 10.1, scalar evolution "currently fails to analyze
   expressions involving freeze"; we model that faithfully, for both
   pipelines (the prototype did not teach SCEV about freeze): a freeze
   feeding the IV's start or step makes [classify] skip that IV. *)

open Ub_ir

type iv = {
  var : Instr.var; (* the phi *)
  ty : Types.t;
  start : Instr.operand;
  step : Instr.operand;
  step_insn : Instr.var; (* the add producing the next value *)
  nsw : bool;
  nuw : bool;
}

let rec operand_mentions_freeze (fn : Func.t) (op : Instr.operand) ~depth =
  depth > 0
  &&
  match op with
  | Instr.Const _ -> false
  | Instr.Var v -> (
    match Func.find_def fn v with
    | Some { Instr.ins = Instr.Freeze _; _ } -> true
    | Some { Instr.ins; _ } ->
      List.exists
        (fun o -> operand_mentions_freeze fn o ~depth:(depth - 1))
        (Instr.operands ins)
    | None -> false)

(* Find the affine induction variables of a loop: phis in the header of
   the form  phi [start, preheader], [next, latch]  with
   next = add [nsw] phi, step  and step loop-invariant. *)
let classify (fn : Func.t) (lp : Loops.loop) : iv list =
  match Func.find_block fn lp.header with
  | None -> []
  | Some header ->
    List.filter_map
      (fun { Instr.def; ins } ->
        match (def, ins) with
        | Some phi_var, Instr.Phi (ty, incoming) when Types.is_integer ty -> (
          let from_latch, from_outside =
            List.partition (fun (_, l) -> List.mem l lp.latches) incoming
          in
          match (from_latch, from_outside) with
          | [ (Instr.Var next, _) ], [ (start, _) ] -> (
            match Func.find_def fn next with
            | Some { Instr.ins = Instr.Binop (Instr.Add, attrs, _, Instr.Var pv, step); _ }
              when pv = phi_var && Loops.operand_invariant fn lp step ->
              if
                operand_mentions_freeze fn step ~depth:4
                || operand_mentions_freeze fn start ~depth:4
              then None
              else
                Some
                  { var = phi_var;
                    ty;
                    start;
                    step;
                    step_insn = next;
                    nsw = attrs.Instr.nsw;
                    nuw = attrs.Instr.nuw;
                  }
            | _ -> None)
          | _ -> None)
        | _ -> None)
      header.insns

(* The canonical rotated-loop exit: header's terminator (or the latch's)
   is `br (icmp pred iv bound), body, exit`.  Returns (iv, pred, bound)
   when matched. *)
let exit_condition (fn : Func.t) (lp : Loops.loop) (ivs : iv list) :
    (iv * Instr.icmp_pred * Instr.operand) option =
  match Func.find_block fn lp.header with
  | None -> None
  | Some header -> (
    match header.term with
    | Instr.Cond_br (Instr.Var c, _, _) -> (
      match Func.find_def fn c with
      | Some { Instr.ins = Instr.Icmp (pred, _, Instr.Var a, bound); _ }
        when Loops.operand_invariant fn lp bound -> (
        match List.find_opt (fun iv -> iv.var = a) ivs with
        | Some iv -> Some (iv, pred, bound)
        | None -> None)
      | _ -> None)
    | _ -> None)
