(* CodeGenPrepare (Section 6, "Optimizations").

   Two backend-enabling transformations the paper had to teach about
   freeze to recover performance; the [Prototype] pipeline runs the
   taught versions, the [Baseline] pipeline the freeze-unaware ones:

   1. Compare sinking: a comparison whose only use is a conditional
      branch is moved directly before the branch, so instruction
      selection can fuse cmp+jcc.  A branch on freeze(icmp ...) blocks
      this in the [Baseline] pipeline.

   2. freeze(icmp %x, C) => icmp (freeze %x), C — a refinement (the
      frozen compare's nondeterminism on poison %x collapses to a
      deterministic function of the frozen %x), performed late because it
      breaks scalar evolution's pattern matching if done early.  Only
      in the [Prototype] pipeline. *)

open Ub_ir
open Instr

let use_count = Instcombine.use_count

(* freeze(icmp x, C) -> icmp (freeze x), C *)
let push_freeze_through_icmp (cfg : Pass.config) (fn : Func.t) : Func.t =
  if cfg.Pass.pipeline = Pass.Baseline then fn
  else
    Pass.rewrite_to_fixpoint
      (fun fn named ->
        match named.ins with
        | Freeze (Types.Int 1, Var v) -> (
          match Func.find_def fn v with
          | Some { Instr.ins = Icmp (pred, ty, x, (Const (Constant.Int _) as c)); _ }
            when use_count fn v = 1 ->
            let fv = Func.fresh_var fn "cgp.fr" in
            Pass.Expand
              [ { Instr.def = Some fv; ins = Freeze (ty, x) };
                { named with Instr.ins = Icmp (pred, ty, Var fv, c) };
              ]
          | _ -> Pass.Keep)
        | _ -> Pass.Keep)
      fn

(* Move a single-use icmp to just before the branch that uses it. *)
let sink_compares (cfg : Pass.config) (fn : Func.t) : Func.t =
  { fn with
    Func.blocks =
      List.map
        (fun (b : Func.block) ->
          match b.term with
          | Cond_br (Var c, _, _) -> (
            match List.partition (fun n -> n.Instr.def = Some c) b.insns with
            | [ cmp ], rest -> (
              match cmp.Instr.ins with
              | Icmp _ when use_count fn c = 1 -> { b with insns = rest @ [ cmp ] }
              | Freeze _ when cfg.Pass.pipeline = Pass.Prototype && use_count fn c = 1 ->
                (* a frozen condition can also sink: all its operands
                   dominate the block already *)
                { b with insns = rest @ [ cmp ] }
              | _ -> b)
            | _ -> b)
          | _ -> b)
        fn.blocks;
  }

let run (cfg : Pass.config) (fn : Func.t) : Func.t =
  let fn = push_freeze_through_icmp cfg fn in
  sink_compares cfg fn

let pass : Pass.t = { Pass.name = "codegenprepare"; run }
