(* Jump threading (simplified): forwards branches through empty blocks
   and folds branches whose condition is (or trivially computes to) a
   constant.

   The freeze wrinkle (Section 7.2, "Shootout nestedloop"): the paper's
   prototype did not teach this pass about the freeze instruction, so in
   both pipelines a branch on a frozen value is not threaded, even on
   freeze(constant).  That perturbs the rest of the [Prototype] pipeline
   — the paper measured a 19% compile-time increase on one benchmark
   from exactly this. *)

open Ub_support
open Ub_ir
open Instr

let known_bool (op : operand) : bool option =
  match op with
  | Const (Constant.Int bv) -> Some (Bitvec.is_one bv)
  | _ -> None

let thread_forwarders (fn : Func.t) : Func.t =
  (* an empty block ending in `br target` can be skipped by its
     predecessors, provided the target's phis don't distinguish (we
     require the target to have no phis) *)
  let entry_label = (Func.entry fn).label in
  let forward : (Instr.label, Instr.label) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (b : Func.block) ->
      match (b.insns, b.term) with
      | [], Br t when t <> b.label && b.label <> entry_label ->
        let target = Func.find_block_exn fn t in
        let target_has_phis =
          List.exists (fun n -> match n.Instr.ins with Phi _ -> true | _ -> false) target.insns
        in
        if not target_has_phis then Hashtbl.replace forward b.label t
      | _ -> ())
    fn.blocks;
  (* resolve chains, avoiding cycles *)
  let rec resolve l seen =
    match Hashtbl.find_opt forward l with
    | Some t when not (List.mem t seen) -> resolve t (l :: seen)
    | _ -> l
  in
  { fn with
    Func.blocks =
      List.map
        (fun (b : Func.block) ->
          { b with term = Instr.map_term_labels (fun l -> resolve l []) b.term })
        fn.blocks;
  }

let fold_known_branches (fn : Func.t) : Func.t =
  { fn with
    Func.blocks =
      List.map
        (fun (b : Func.block) ->
          match b.term with
          | Cond_br (c, t, e) -> (
            match known_bool c with
            | Some true -> { b with term = Br t }
            | Some false -> { b with term = Br e }
            | None -> b)
        | _ -> b)
        fn.blocks;
  }

let run (_cfg : Pass.config) (fn : Func.t) : Func.t =
  let fn = fold_known_branches fn in
  let fn = thread_forwarders fn in
  let fn = Dce.remove_unreachable_blocks fn in
  Simplifycfg.prune_phis fn

let pass : Pass.t = { Pass.name = "jump-threading"; run }
