(* The micro-architectural cost model.  Block cost = sum of instruction
   latencies, with cmp/test+jcc macro-fusion, and the Intel LEA base-
   register penalty (r13 needs a disp8 encoding path; Optimization
   Reference Manual §3.5.1.3) that produces the paper's Queens anomaly.

   Simulated running time of a compiled function =
     sum over blocks of (IR-profile execution count x block cost). *)

let inst_cost (p : Target.profile) (prev : Mir.inst option) (i : Mir.inst) : float =
  match i with
  | Mir.Mov (_, _, _) -> p.Target.lat_alu
  | Mir.Bin (Mir.BImul, _, _, _) -> p.Target.lat_imul
  | Mir.Bin (_, _, _, _) -> p.Target.lat_alu
  | Mir.Neg _ | Mir.Not _ -> p.Target.lat_alu
  | Mir.Div _ -> p.Target.lat_div
  | Mir.Cmp _ | Mir.Test _ -> p.Target.lat_alu
  | Mir.Setcc _ -> p.Target.lat_alu
  | Mir.Cmov _ -> p.Target.lat_cmov
  | Mir.Movsx _ | Mir.Movzx _ -> p.Target.lat_movsx
  | Mir.Lea { addr; _ } ->
    let base_penalty =
      match addr.Mir.base with
      | Mir.Preg r when r = Target.r13 -> p.Target.lea_slow_base_penalty
      | _ -> 0.0
    in
    p.Target.lat_lea +. base_penalty
  | Mir.Load _ -> p.Target.lat_load
  | Mir.Store _ -> p.Target.lat_store
  | Mir.Copy _ -> p.Target.lat_copy
  | Mir.Undef_def _ -> 0.0 (* pinned undef: no instruction emitted *)
  | Mir.Call _ -> p.Target.lat_call
  | Mir.Push _ | Mir.Pop _ -> p.Target.lat_alu
  | Mir.Jmp _ -> 1.0
  | Mir.Jcc _ -> (
    (* macro-fusion with an adjacent compare *)
    match prev with
    | Some (Mir.Cmp _) | Some (Mir.Test _) -> p.Target.lat_fused_cmp_branch
    | _ -> p.Target.lat_branch)
  | Mir.Ret _ -> 1.0
  | Mir.Spill_store _ -> p.Target.lat_store
  | Mir.Spill_load _ -> p.Target.lat_load

let block_cost (p : Target.profile) (b : Mir.block) : float =
  let rec go prev acc = function
    | [] -> acc
    | i :: rest -> go (Some i) (acc +. inst_cost p prev i) rest
  in
  go None 0.0 b.Mir.insts

(* Simulated cycles for a run of the ORIGINAL function whose execution
   profile (block -> count) was measured at the IR level on the same
   function the MIR was selected from. *)
let simulate (p : Target.profile) (mf : Mir.func) (profile : (string * int) list) : float =
  List.fold_left
    (fun acc (b : Mir.block) ->
      let count =
        match List.assoc_opt b.Mir.mlabel profile with Some c -> float_of_int c | None -> 0.0
      in
      acc +. (count *. block_cost p b))
    0.0 mf.Mir.blocks
