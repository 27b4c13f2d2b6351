(* Loop unswitching (Sections 3.3 and 5.1).

   When a branch inside a loop tests a loop-invariant condition, the loop
   is duplicated and the test moves outside:

       while (c) { if (c2) foo else bar }
     =>
       if (FREEZE c2) { while (c) foo } else { while (c) bar }

   The freeze is the paper's fix: hoisting the branch makes it execute on
   iterations-zero paths where the original never branched on c2, so if
   c2 is poison the transformed program would be UB under the proposed
   branch-on-poison-is-UB rule.  freeze turns that into a nondeterministic
   (but fixed) choice, which *refines* the original.  The [Baseline]
   pipeline hoists the raw condition — the end-to-end miscompilation
   of PR27506 — and the [Prototype] pipeline the frozen one.

   Implementation restrictions (bail out otherwise): the loop has a
   preheader, no value defined in the loop is used outside it, and the
   unswitched condition is an operand that dominates the preheader. *)

open Ub_ir
open Instr
module A = Ub_analysis

let defs_used_outside (fn : Func.t) (lp : A.Loops.loop) : bool =
  let inside = lp.A.Loops.blocks in
  let loop_defs =
    List.concat_map
      (fun (b : Func.block) ->
        if List.mem b.label inside then List.filter_map (fun n -> n.Instr.def) b.insns else [])
      fn.blocks
  in
  List.exists
    (fun (b : Func.block) ->
      (not (List.mem b.label inside))
      && (List.exists
            (fun n ->
              List.exists
                (function Var v -> List.mem v loop_defs | Const _ -> false)
                (operands n.Instr.ins))
            b.insns
         || List.exists
              (function Var v -> List.mem v loop_defs | Const _ -> false)
              (term_operands b.term)))
    fn.blocks

(* Rename every def and label of a set of blocks with a suffix. *)
let clone_blocks (blocks : Func.block list) ~(suffix : string) ~(in_loop : Instr.label -> bool)
    : Func.block list =
  let rename_label l = if in_loop l then l ^ suffix else l in
  let defs =
    List.concat_map (fun (b : Func.block) -> List.filter_map (fun n -> n.Instr.def) b.insns) blocks
  in
  let rename_var v = if List.mem v defs then v ^ suffix else v in
  let rename_op = function
    | Var v -> Var (rename_var v)
    | Const _ as c -> c
  in
  List.map
    (fun (b : Func.block) ->
      { Func.label = rename_label b.label;
        insns =
          List.map
            (fun n ->
              let ins =
                match n.Instr.ins with
                | Phi (ty, inc) ->
                  Phi (ty, List.map (fun (v, l) -> (rename_op v, rename_label l)) inc)
                | ins -> Instr.map_operands rename_op ins
              in
              { Instr.def = Option.map rename_var n.Instr.def; ins })
            b.insns;
        term =
          Instr.map_term_labels rename_label (Instr.map_term_operands rename_op b.term);
      })
    blocks

let unswitch_one (cfg : Pass.config) (fn : Func.t) (lp : A.Loops.loop) : Func.t option =
  match lp.A.Loops.preheader with
  | None -> None
  | Some ph ->
    if defs_used_outside fn lp then None
    else begin
      (* find a conditional branch in the loop on an invariant condition
         that is not the loop's own exit test *)
      let candidate =
        List.find_map
          (fun (b : Func.block) ->
            if not (List.mem b.label lp.A.Loops.blocks) then None
            else
              match b.term with
              | Cond_br (c, t, e)
                when A.Loops.operand_invariant fn lp c
                     && t <> e
                     && List.mem t lp.A.Loops.blocks
                     && List.mem e lp.A.Loops.blocks ->
                Some (b.label, c)
              | _ -> None)
          fn.blocks
      in
      match candidate with
      | None -> None
      | Some (branch_block, cond) ->
        let in_loop l = List.mem l lp.A.Loops.blocks in
        let loop_blocks = List.filter (fun (b : Func.block) -> in_loop b.Func.label) fn.blocks in
        (* specialize: in copy T the branch goes to its true target, in
           copy F to the false target *)
        let specialize suffix keep_true blocks =
          List.map
            (fun (b : Func.block) ->
              if b.Func.label = branch_block ^ suffix then
                match b.Func.term with
                | Cond_br (_, t, e) -> { b with Func.term = Br (if keep_true then t else e) }
                | _ -> b
              else b)
            blocks
        in
        let copy_t = specialize ".ust" true (clone_blocks loop_blocks ~suffix:".ust" ~in_loop) in
        let copy_f = specialize ".usf" false (clone_blocks loop_blocks ~suffix:".usf" ~in_loop) in
        (* exit-block phis: add incomings for the cloned exiting blocks *)
        let exit_fix (b : Func.block) =
          if in_loop b.Func.label then b
          else
            { b with
              Func.insns =
                List.map
                  (fun n ->
                    match n.Instr.ins with
                    | Phi (ty, inc) ->
                      let extra =
                        List.concat_map
                          (fun (v, l) ->
                            if in_loop l then [ (v, l ^ ".ust"); (v, l ^ ".usf") ] else [])
                          inc
                      in
                      let kept = List.filter (fun (_, l) -> not (in_loop l)) inc in
                      { n with Instr.ins = Phi (ty, kept @ extra) }
                    | _ -> n)
                  b.Func.insns;
            }
        in
        (* new preheader: branch on (freeze cond | cond) to the copies *)
        let fcond_insns, cond_op =
          match cfg.Pass.pipeline with
          | Pass.Prototype ->
            let fv = Func.fresh_var fn "us.fr" in
            ([ { Instr.def = Some fv; ins = Freeze (Types.Int 1, cond) } ], Var fv)
          | Pass.Baseline -> ([], cond) (* the PR27506 bug *)
        in
        let blocks' =
          List.concat_map
            (fun (b : Func.block) ->
              if b.Func.label = ph then
                [ { b with
                    Func.insns = b.Func.insns @ fcond_insns;
                    term = Cond_br (cond_op, lp.A.Loops.header ^ ".ust", lp.A.Loops.header ^ ".usf");
                  }
                ]
              else if in_loop b.Func.label then [] (* original loop replaced by copies *)
              else [ exit_fix b ])
            fn.blocks
        in
        (* place the copies right after the preheader *)
        let rec insert_after label acc = function
          | [] -> List.rev acc
          | (b : Func.block) :: rest when b.Func.label = label ->
            List.rev_append acc ((b :: copy_t) @ copy_f @ rest)
          | b :: rest -> insert_after label (b :: acc) rest
        in
        let blocks' = insert_after ph [] blocks' in
        (* phis in the cloned headers still name the preheader as an
           incoming: that is correct (the preheader branches to both
           cloned headers).  Specialization makes one arm of each copy
           unreachable; prune it immediately. *)
        Some (Dce.remove_unreachable_blocks { fn with Func.blocks = blocks' })
    end

let run (cfg : Pass.config) (fn : Func.t) : Func.t =
  let loops = A.Loops.compute fn in
  (* unswitch at most one loop per run to keep code growth in check *)
  let rec try_loops = function
    | [] -> fn
    | lp :: rest -> (
      match unswitch_one cfg fn lp with
      | Some fn' -> fn'
      | None -> try_loops rest)
  in
  try_loops loops.A.Loops.loops

let pass : Pass.t = { Pass.name = "loop-unswitch"; run }
