(* Natural-loop detection from back edges in the dominator tree, with the
   bits loop passes need: header, body, preheader, exiting edges, and
   loop-invariance queries. *)

open Ub_ir

type loop = {
  header : Instr.label;
  latches : Instr.label list; (* sources of back edges *)
  blocks : Instr.label list; (* body, including header *)
  preheader : Instr.label option; (* unique non-loop predecessor of header ending in Br *)
  exits : (Instr.label * Instr.label) list; (* (inside, outside) edges *)
}

type t = { loops : loop list; dom : Dom.t }

let compute (fn : Func.t) : t =
  let cfg = Cfg.build fn in
  let dom = Dom.compute cfg in
  (* back edge: l -> h where h dominates l *)
  let back_edges =
    List.concat_map
      (fun l ->
        List.filter_map
          (fun s -> if Dom.dominates dom s l then Some (l, s) else None)
          (Cfg.successors cfg l))
      cfg.rpo
  in
  (* group back edges by header *)
  let headers = List.sort_uniq compare (List.map snd back_edges) in
  let loops =
    List.map
      (fun h ->
        let latches = List.filter_map (fun (l, h') -> if h' = h then Some l else None) back_edges in
        (* natural loop body: h plus all blocks reaching a latch without
           passing through h *)
        let body = Hashtbl.create 8 in
        Hashtbl.replace body h ();
        let rec add l =
          if not (Hashtbl.mem body l) then begin
            Hashtbl.replace body l ();
            List.iter add (Cfg.predecessors cfg l)
          end
        in
        List.iter add latches;
        let blocks = List.filter (Hashtbl.mem body) cfg.rpo in
        let outside_preds =
          List.filter (fun p -> not (Hashtbl.mem body p)) (Cfg.predecessors cfg h)
        in
        let preheader =
          match outside_preds with
          | [ p ] -> (
            match Func.find_block fn p with
            | Some b -> ( match b.term with Instr.Br _ -> Some p | _ -> None)
            | None -> None)
          | _ -> None
        in
        let exits =
          List.concat_map
            (fun l ->
              List.filter_map
                (fun s -> if Hashtbl.mem body s then None else Some (l, s))
                (Cfg.successors cfg l))
            blocks
        in
        { header = h; latches; blocks; preheader; exits })
      headers
  in
  { loops; dom }

(* Is operand [op] invariant in [lp] — defined outside the loop (or a
   constant / argument)? *)
let operand_invariant (fn : Func.t) (lp : loop) (op : Instr.operand) =
  match op with
  | Instr.Const _ -> true
  | Instr.Var v -> (
    if List.mem_assoc v fn.args then true
    else
      match Func.defining_block fn v with
      | Some b -> not (List.mem b.label lp.blocks)
      | None -> true)

let insn_invariant (fn : Func.t) (lp : loop) (ins : Instr.t) =
  List.for_all (operand_invariant fn lp) (Instr.operands ins)
