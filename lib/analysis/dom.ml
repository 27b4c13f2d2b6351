(* Dominator tree via the Cooper–Harvey–Kennedy "engineered" iterative
   algorithm, plus dominance queries and dominance frontiers. *)

open Ub_ir

type t = {
  cfg : Cfg.t;
  idom : (Instr.label, Instr.label) Hashtbl.t; (* entry maps to itself *)
}

let compute (cfg : Cfg.t) : t =
  let entry = List.hd cfg.rpo in
  let idom = Hashtbl.create 16 in
  Hashtbl.replace idom entry entry;
  let index l = Hashtbl.find cfg.index l in
  let rec intersect a b =
    if a = b then a
    else begin
      let ia = index a and ib = index b in
      if ia > ib then intersect (Hashtbl.find idom a) b
      else intersect a (Hashtbl.find idom b)
    end
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun l ->
        if l <> entry then begin
          let preds =
            List.filter (fun p -> Hashtbl.mem idom p || p = entry) (Cfg.predecessors cfg l)
          in
          let preds = List.filter (fun p -> Cfg.is_reachable cfg p) preds in
          match List.filter (Hashtbl.mem idom) preds with
          | [] -> ()
          | first :: rest ->
            let new_idom = List.fold_left intersect first rest in
            if Hashtbl.find_opt idom l <> Some new_idom then begin
              Hashtbl.replace idom l new_idom;
              changed := true
            end
        end)
      cfg.rpo
  done;
  { cfg; idom }

let of_func fn = compute (Cfg.build fn)

let idom t l =
  match Hashtbl.find_opt t.idom l with
  | Some p when p <> l -> Some p
  | _ -> None

(* Does [a] dominate [b]?  (Reflexive.) *)
let dominates t a b =
  let rec go x =
    if x = a then true
    else
      match idom t x with
      | Some p -> go p
      | None -> false
  in
  Cfg.is_reachable t.cfg a && Cfg.is_reachable t.cfg b && go b

let strictly_dominates t a b = a <> b && dominates t a b

(* Children in the dominator tree. *)
let children t l =
  List.filter (fun c -> c <> l && Hashtbl.find_opt t.idom c = Some l) t.cfg.rpo

(* Dominance frontier (Cooper-Harvey-Kennedy's simple computation). *)
let frontiers t : (Instr.label, Instr.label list) Hashtbl.t =
  let df = Hashtbl.create 16 in
  List.iter (fun l -> Hashtbl.replace df l []) t.cfg.rpo;
  List.iter
    (fun b ->
      let preds = List.filter (Cfg.is_reachable t.cfg) (Cfg.predecessors t.cfg b) in
      if List.length preds >= 2 then
        List.iter
          (fun p ->
            let rec walk runner =
              match Hashtbl.find_opt t.idom b with
              | Some dom_b when runner <> dom_b ->
                let cur = Hashtbl.find df runner in
                if not (List.mem b cur) then Hashtbl.replace df runner (b :: cur);
                (match Hashtbl.find_opt t.idom runner with
                | Some next when next <> runner -> walk next
                | _ -> ())
              | _ -> ()
            in
            walk p)
          preds)
    t.cfg.rpo;
  df
