(* Delta-debugging reducer for IR functions and transform pairs.
   Given a predicate ("the checker says not-refined", "the SAT and
   enumeration verdicts disagree", "this property fails"), [minimize]
   greedily applies single reduction edits, keeping a candidate only
   when it (a) still passes the SSA validator and (b) still satisfies
   the predicate, until no edit makes progress — a 1-minimal local
   fixpoint in the ddmin sense.

   The edit catalogue (each is one [edit] value, applied atomically):
     - drop a whole block, rerouting branches around it;
     - collapse a conditional branch to one of its arms;
     - delete a dead (unused or void) instruction;
     - replace a def's uses with a constant, undef, poison, or a
       same-typed argument, deleting the def;
     - replace a def with [freeze] of a fresh function input (keeps a
       nondeterministic-but-stable value in play while deleting the
       computation that produced it);
     - strip an nsw/nuw/exact attribute;
     - set one operand to a constant;
     - simplify a return value to a constant;
     - narrow an integer width everywhere (iW -> iW');
     - shorten a vector length everywhere (<n x t> -> <n' x t>).

   Every candidate is revalidated through [Validate.check_func] before
   the oracle ever sees it, so the oracle can assume well-formed SSA.
   Candidate order is deterministic (block-level edits first, cosmetic
   ones last) and the engine is purely functional in the input, so a
   reduction is reproducible run-to-run. *)

open Ub_support
open Ub_ir

type flag = Fnsw | Fnuw | Fexact

type edit =
  | Drop_block of Instr.label
  | Flatten_cond of Instr.label * bool (* true: keep the then-arm *)
  | Drop_insn of Instr.label * int (* block label, instruction index *)
  | Rauw of Instr.var * Instr.operand (* delete the def, replace its uses *)
  | Rauw_frozen_input of Instr.var * Instr.var * Instr.var
      (* def to delete, fresh argument name, fresh freeze result name *)
  | Strip_flag of Instr.var * flag
  | Set_operand of Instr.label * int * int * Instr.operand
      (* block, instruction index, operand index, replacement *)
  | Set_ret of Instr.label * Instr.operand
  | Narrow of int * int (* rewrite iW -> iW' everywhere *)
  | Shrink_vec of int * int (* rewrite <n x t> -> <n' x t> everywhere *)

let flag_name = function Fnsw -> "nsw" | Fnuw -> "nuw" | Fexact -> "exact"

let edit_to_string = function
  | Drop_block l -> Printf.sprintf "drop-block %%%s" l
  | Flatten_cond (l, arm) ->
    Printf.sprintf "flatten-cond %%%s (%s arm)" l (if arm then "then" else "else")
  | Drop_insn (l, i) -> Printf.sprintf "drop-insn %%%s:%d" l i
  | Rauw (v, _) -> Printf.sprintf "rauw %%%s" v
  | Rauw_frozen_input (v, a, _) -> Printf.sprintf "rauw %%%s <- freeze(fresh %%%s)" v a
  | Strip_flag (v, f) -> Printf.sprintf "strip-%s %%%s" (flag_name f) v
  | Set_operand (l, i, j, _) -> Printf.sprintf "set-operand %%%s:%d#%d" l i j
  | Set_ret (l, _) -> Printf.sprintf "set-ret %%%s" l
  | Narrow (w, w') -> Printf.sprintf "narrow i%d -> i%d" w w'
  | Shrink_vec (n, n') -> Printf.sprintf "shrink-vec %d -> %d" n n'

(* ------------------------------------------------------------------ *)
(* Structural helpers                                                  *)
(* ------------------------------------------------------------------ *)

let set_block fn (b' : Func.block) =
  { fn with
    Func.blocks =
      List.map (fun b -> if b.Func.label = b'.Func.label then b' else b) fn.Func.blocks
  }

let drop_def fn v =
  Func.map_insns fn (fun n -> if n.Instr.def = Some v then [] else [ n ])

(* After a CFG edit, phi incoming lists must be re-synchronized with the
   new predecessor sets: entries from vanished predecessors are dropped,
   and phis left with a single incoming collapse to a plain copy
   (RAUW).  Anything still ill-formed is left for the validator to
   reject. *)
let cleanup_phis (fn : Func.t) : Func.t =
  let preds = Func.predecessors fn in
  let fn =
    { fn with
      Func.blocks =
        List.map
          (fun b ->
            let ps =
              match List.assoc_opt b.Func.label preds with Some p -> p | None -> []
            in
            { b with
              Func.insns =
                List.map
                  (fun n ->
                    match n.Instr.ins with
                    | Instr.Phi (ty, inc) ->
                      { n with
                        Instr.ins =
                          Instr.Phi (ty, List.filter (fun (_, l) -> List.mem l ps) inc)
                      }
                    | _ -> n)
                  b.Func.insns
            })
          fn.Func.blocks
    }
  in
  let singles =
    List.concat_map
      (fun b ->
        List.filter_map
          (fun n ->
            match (n.Instr.def, n.Instr.ins) with
            | Some v, Instr.Phi (_, [ (op, _) ]) -> Some (v, op)
            | _ -> None)
          b.Func.insns)
      fn.Func.blocks
  in
  List.fold_left
    (fun fn (v, op) -> Func.replace_uses (drop_def fn v) ~v ~by:op)
    fn singles

(* Bottom-up type rewriting over a whole function, with the embedded
   constants retyped in lockstep (truncate / zero-extend integer
   constants, take a prefix of vector constants). *)
let rec ty_map f (t : Types.t) : Types.t =
  match t with
  | Types.Int _ -> f t
  | Types.Ptr p -> f (Types.Ptr (ty_map f p))
  | Types.Vec (n, e) -> f (Types.Vec (n, ty_map f e))

let rec const_map (fty : Types.t -> Types.t) (c : Constant.t) : Constant.t =
  match c with
  | Constant.Int bv -> (
    let w = Bitvec.width bv in
    match fty (Types.Int w) with
    | Types.Int w' when w' < w -> Constant.Int (Bitvec.trunc bv ~width:w')
    | Types.Int w' when w' > w -> Constant.Int (Bitvec.zext bv ~width:w')
    | _ -> c)
  | Constant.Null t -> Constant.Null (fty t)
  | Constant.Vec (t, cs) -> (
    let t' = fty t in
    let cs = List.map (const_map fty) cs in
    let cs =
      match t' with
      | Types.Vec (n, _) when n < List.length cs -> Util.take n cs
      | _ -> cs
    in
    Constant.Vec (t', cs))
  | Constant.Undef t -> Constant.Undef (fty t)
  | Constant.Poison t -> Constant.Poison (fty t)

let map_types (fn : Func.t) (f : Types.t -> Types.t) : Func.t =
  let fty t = ty_map f t in
  let fc = const_map fty in
  { fn with
    Func.args = List.map (fun (v, t) -> (v, fty t)) fn.Func.args;
    Func.ret_ty = Option.map fty fn.Func.ret_ty;
    Func.blocks =
      List.map
        (fun b ->
          { b with
            Func.insns =
              List.map
                (fun n -> { n with Instr.ins = Instr.map_types fty fc n.Instr.ins })
                b.Func.insns;
            Func.term = Instr.map_term_types fty fc b.Func.term;
          })
        fn.Func.blocks;
  }

(* ------------------------------------------------------------------ *)
(* Applying one edit                                                   *)
(* ------------------------------------------------------------------ *)

(* [apply e fn] is [None] when the edit does not make sense for [fn]
   (no such block/def, flag already clear, operand already that value).
   A [Some] result is *structurally* applied but not yet validated:
   callers must gate it through [Validate.check_func]. *)
let apply (e : edit) (fn : Func.t) : Func.t option =
  match e with
  | Drop_block l ->
    if (Func.entry fn).Func.label = l || Func.find_block fn l = None then None
    else begin
      let blocks = List.filter (fun b -> b.Func.label <> l) fn.Func.blocks in
      let retarget b =
        let term =
          match b.Func.term with
          | Instr.Br x when x = l -> Instr.Unreachable
          | Instr.Cond_br (_, t, e) when t = l && e = l -> Instr.Unreachable
          | Instr.Cond_br (_, t, e) when t = l -> Instr.Br e
          | Instr.Cond_br (_, t, e) when e = l -> Instr.Br t
          | t -> t
        in
        { b with Func.term }
      in
      Some (cleanup_phis { fn with Func.blocks = List.map retarget blocks })
    end
  | Flatten_cond (l, keep_then) -> (
    match Func.find_block fn l with
    | Some b -> (
      match b.Func.term with
      | Instr.Cond_br (_, t, e) ->
        let tgt = if keep_then then t else e in
        Some (cleanup_phis (set_block fn { b with Func.term = Instr.Br tgt }))
      | _ -> None)
    | None -> None)
  | Drop_insn (l, idx) -> (
    match Func.find_block fn l with
    | None -> None
    | Some b -> (
      match List.nth_opt b.Func.insns idx with
      | None -> None
      | Some n ->
        let removable =
          match n.Instr.def with None -> true | Some v -> Func.use_count fn v = 0
        in
        if not removable then None
        else
          Some
            (set_block fn
               { b with Func.insns = List.filteri (fun i _ -> i <> idx) b.Func.insns })))
  | Rauw (v, by) -> (
    match Func.find_def fn v with
    | None -> None
    | Some _ -> Some (Func.replace_uses (drop_def fn v) ~v ~by))
  | Rauw_frozen_input (v, arg, frz) -> (
    match Func.find_def fn v with
    | None -> None
    | Some n -> (
      match Instr.result_ty n.Instr.ins with
      | Some (Types.Int _ as ty) ->
        let taken = List.map fst (Func.defs fn) in
        if List.mem arg taken || List.mem frz taken || arg = frz then None
        else begin
          let fn = Func.replace_uses (drop_def fn v) ~v ~by:(Instr.Var frz) in
          let entry = Func.entry fn in
          let rec split acc = function
            | ({ Instr.ins = Instr.Phi _; _ } as p) :: rest -> split (p :: acc) rest
            | rest -> (List.rev acc, rest)
          in
          let phis, rest = split [] entry.Func.insns in
          let fr = { Instr.def = Some frz; Instr.ins = Instr.Freeze (ty, Instr.Var arg) } in
          let fn = set_block fn { entry with Func.insns = phis @ (fr :: rest) } in
          Some { fn with Func.args = fn.Func.args @ [ (arg, ty) ] }
        end
      | _ -> None))
  | Strip_flag (v, fl) -> (
    match Func.find_def fn v with
    | Some { Instr.ins = Instr.Binop (op, at, ty, a, b); _ } ->
      let at' =
        match fl with
        | Fnsw -> { at with Instr.nsw = false }
        | Fnuw -> { at with Instr.nuw = false }
        | Fexact -> { at with Instr.exact = false }
      in
      if at' = at then None
      else
        Some
          (Func.map_insns fn (fun n ->
               if n.Instr.def = Some v then
                 [ { n with Instr.ins = Instr.Binop (op, at', ty, a, b) } ]
               else [ n ]))
    | _ -> None)
  | Set_operand (l, idx, opix, by) -> (
    match Func.find_block fn l with
    | None -> None
    | Some b -> (
      match List.nth_opt b.Func.insns idx with
      | None -> None
      | Some n ->
        let cur = List.nth_opt (Instr.operands n.Instr.ins) opix in
        if cur = None || cur = Some by then None
        else begin
          let i = ref (-1) in
          let ins' =
            Instr.map_operands
              (fun o ->
                incr i;
                if !i = opix then by else o)
              n.Instr.ins
          in
          Some
            (set_block fn
               { b with
                 Func.insns =
                   List.mapi
                     (fun j m -> if j = idx then { n with Instr.ins = ins' } else m)
                     b.Func.insns
               })
        end))
  | Set_ret (l, by) -> (
    match Func.find_block fn l with
    | Some b -> (
      match b.Func.term with
      | Instr.Ret (ty, x) when x <> by ->
        Some (set_block fn { b with Func.term = Instr.Ret (ty, by) })
      | _ -> None)
    | None -> None)
  | Narrow (w, w') ->
    if w' < 1 || w' >= w then None
    else Some (map_types fn (function Types.Int x when x = w -> Types.Int w' | t -> t))
  | Shrink_vec (n, n') ->
    if n' < 1 || n' >= n then None
    else
      Some
        (map_types fn (function
          | Types.Vec (m, e) when m = n -> Types.Vec (n', e)
          | t -> t))

(* ------------------------------------------------------------------ *)
(* Candidate generation                                                *)
(* ------------------------------------------------------------------ *)

(* Expected type of each operand, aligned with [Instr.operands]; [None]
   where the type is not locally determined (pointers, indices). *)
let operand_tys (ins : Instr.t) : (Instr.operand * Types.t option) list =
  let tys =
    match ins with
    | Instr.Binop (_, _, ty, _, _) -> [ Some ty; Some ty ]
    | Instr.Icmp (_, ty, _, _) -> [ Some ty; Some ty ]
    | Instr.Select (_, ty, _, _) -> [ Some (Types.bool_shape ty); Some ty; Some ty ]
    | Instr.Conv (_, from, _, _) -> [ Some from ]
    | Instr.Bitcast (from, _, _) -> [ Some from ]
    | Instr.Freeze (ty, _) -> [ Some ty ]
    | Instr.Phi (ty, inc) -> List.map (fun _ -> Some ty) inc
    | Instr.Gep { indices; _ } -> None :: List.map (fun (t, _) -> Some t) indices
    | Instr.Load _ -> [ None ]
    | Instr.Store (ty, _, _) -> [ Some ty; None ]
    | Instr.Call (_, _, args) -> List.map (fun (t, _) -> Some t) args
    | Instr.Extractelement (vty, _, _) -> [ Some vty; None ]
    | Instr.Insertelement (vty, _, _, _) ->
      [ Some vty; Some (Types.element vty); None ]
  in
  List.combine (Instr.operands ins) tys

(* The replacement menu for a slot of type [ty]: zero, one, undef,
   poison. *)
let const_menu (ty : Types.t) : Instr.operand list =
  (match ty with
  | Types.Int w ->
    [ Instr.Const (Constant.Int (Bitvec.zero w)); Instr.Const (Constant.Int (Bitvec.one w)) ]
  | _ -> [ Instr.Const (Constant.zero ty) ])
  @ [ Instr.Const (Constant.Undef ty); Instr.Const (Constant.Poison ty) ]

let rauw_targets (fn : Func.t) (ty : Types.t) : Instr.operand list =
  const_menu ty
  @ List.filter_map
      (fun (a, t) -> if Types.equal t ty then Some (Instr.Var a) else None)
      fn.Func.args

let int_widths (fn : Func.t) : int list =
  let rec add acc t =
    match t with
    | Types.Int w -> if List.mem w acc then acc else w :: acc
    | Types.Ptr p -> add acc p
    | Types.Vec (_, e) -> add acc e
  in
  let acc = List.fold_left (fun acc (_, t) -> add acc t) [] (Func.defs fn) in
  let acc = match fn.Func.ret_ty with Some t -> add acc t | None -> acc in
  List.sort (fun a b -> compare b a) acc

let vec_lens (fn : Func.t) : int list =
  let rec add acc t =
    match t with
    | Types.Vec (n, e) -> add (if List.mem n acc then acc else n :: acc) e
    | Types.Ptr p -> add acc p
    | Types.Int _ -> acc
  in
  let acc = List.fold_left (fun acc (_, t) -> add acc t) [] (Func.defs fn) in
  let acc = match fn.Func.ret_ty with Some t -> add acc t | None -> acc in
  List.sort (fun a b -> compare b a) acc

(* All single-step edits worth trying on [fn], coarse-to-fine: whole
   blocks, then whole defs, then instructions, then operand / attribute
   cosmetics, then global type shrinks, then the freeze-of-fresh-input
   rewrite (which does not reduce the instruction count and so comes
   last).  [other] contributes its defined names to the fresh-name pool
   so the same edit stays applicable to both halves of a transform
   pair. *)
let candidate_edits ?(other : Func.t option) (fn : Func.t) : edit list =
  let entry_l = (Func.entry fn).Func.label in
  let blocks = fn.Func.blocks in
  let indexed_insns b = List.mapi (fun i n -> (i, n)) b.Func.insns in
  let drops =
    List.filter_map
      (fun b -> if b.Func.label = entry_l then None else Some (Drop_block b.Func.label))
      blocks
  in
  let flattens =
    List.concat_map
      (fun b ->
        match b.Func.term with
        | Instr.Cond_br (_, t, e) when t = e -> [ Flatten_cond (b.Func.label, true) ]
        | Instr.Cond_br _ ->
          [ Flatten_cond (b.Func.label, true); Flatten_cond (b.Func.label, false) ]
        | _ -> [])
      blocks
  in
  let rauws =
    List.concat_map
      (fun b ->
        List.concat_map
          (fun n ->
            match (n.Instr.def, Instr.result_ty n.Instr.ins) with
            | Some v, Some ty ->
              (* forwarding a def to one of its own same-typed operands
                 comes first: it deletes the instruction while keeping
                 the dataflow, the reduction most likely to preserve a
                 failure *)
              let fwd =
                List.filter_map
                  (fun (op, t) ->
                    match t with
                    | Some t when Types.equal t ty && op <> Instr.Var v -> Some op
                    | _ -> None)
                  (operand_tys n.Instr.ins)
              in
              List.map (fun op -> Rauw (v, op)) (fwd @ rauw_targets fn ty)
            | _ -> [])
          b.Func.insns)
      blocks
  in
  let dead =
    List.concat_map
      (fun b -> List.map (fun (i, _) -> Drop_insn (b.Func.label, i)) (indexed_insns b))
      blocks
  in
  let rets =
    List.concat_map
      (fun b ->
        match b.Func.term with
        | Instr.Ret (ty, Instr.Var _) ->
          List.map (fun op -> Set_ret (b.Func.label, op)) (const_menu ty)
        | _ -> [])
      blocks
  in
  let strips =
    List.concat_map
      (fun b ->
        List.concat_map
          (fun n ->
            match (n.Instr.def, n.Instr.ins) with
            | Some v, Instr.Binop (_, at, _, _, _) ->
              (if at.Instr.nsw then [ Strip_flag (v, Fnsw) ] else [])
              @ (if at.Instr.nuw then [ Strip_flag (v, Fnuw) ] else [])
              @ if at.Instr.exact then [ Strip_flag (v, Fexact) ] else []
            | _ -> [])
          b.Func.insns)
      blocks
  in
  let setops =
    List.concat_map
      (fun b ->
        List.concat_map
          (fun (idx, n) ->
            List.concat_map
              (fun (opix, (cur, ty)) ->
                match (cur, ty) with
                | Instr.Var _, Some ty ->
                  List.filter_map
                    (fun op ->
                      if op = cur then None
                      else Some (Set_operand (b.Func.label, idx, opix, op)))
                    (const_menu ty)
                | _ -> [])
              (List.mapi (fun i x -> (i, x)) (operand_tys n.Instr.ins)))
          (indexed_insns b))
      blocks
  in
  let narrows =
    List.concat_map
      (fun w ->
        List.filter_map
          (fun w' -> if w' >= 1 && w' < w then Some (Narrow (w, w')) else None)
          (List.sort_uniq compare [ 1; 8; w / 2; w - 1 ]))
      (int_widths fn)
  in
  let vshrinks =
    List.concat_map
      (fun n ->
        List.filter_map
          (fun n' -> if n' >= 1 && n' < n then Some (Shrink_vec (n, n')) else None)
          (List.sort_uniq compare [ 1; n / 2; n - 1 ]))
      (vec_lens fn)
  in
  let frozen =
    let used =
      List.map fst (Func.defs fn)
      @ (match other with Some o -> List.map fst (Func.defs o) | None -> [])
    in
    let fresh prefix =
      let rec go i =
        let c = Printf.sprintf "%s%d" prefix i in
        if List.mem c used then go (i + 1) else c
      in
      go 0
    in
    let arg = fresh "sa" and frz = fresh "sf" in
    List.concat_map
      (fun b ->
        List.filter_map
          (fun n ->
            match (n.Instr.def, Instr.result_ty n.Instr.ins) with
            | Some v, Some (Types.Int _) -> (
              match n.Instr.ins with
              (* already a freeze of an argument: rewriting again only
                 renames, so skip to guarantee progress *)
              | Instr.Freeze (_, Instr.Var a) when List.mem_assoc a fn.Func.args -> None
              | _ -> Some (Rauw_frozen_input (v, arg, frz)))
            | _ -> None)
          b.Func.insns)
      blocks
  in
  drops @ flattens @ rauws @ dead @ rets @ strips @ setops @ narrows @ vshrinks @ frozen

(* ------------------------------------------------------------------ *)
(* The greedy fixpoint engine                                          *)
(* ------------------------------------------------------------------ *)

type stats = {
  oracle_calls : int; (* candidates that reached the oracle *)
  candidates : int; (* distinct structurally-applicable candidates *)
  accepted : int; (* greedy steps taken *)
  initial_insns : int;
  final_insns : int;
}

let pp_stats ppf (s : stats) =
  Format.fprintf ppf "%d -> %d insns in %d step(s) (%d candidate(s), %d oracle call(s))"
    s.initial_insns s.final_insns s.accepted s.candidates s.oracle_calls

(* Seen-sets are keyed on the candidates themselves: structural
   equality, and a hash that folds in every instruction and terminator
   (one [Hashtbl.hash] of a whole function stops after a few hundred
   nodes, so candidates differing only in a late block would share a
   bucket). *)
let hash_func (fn : Func.t) =
  let h x = Hashtbl.hash_param 64 128 x in
  List.fold_left
    (fun acc (b : Func.block) ->
      List.fold_left
        (fun acc n -> (acc * 31) + h n)
        ((acc * 31) + h (b.Func.label, b.Func.term))
        b.Func.insns)
    (h (fn.Func.name, fn.Func.args, fn.Func.ret_ty))
    fn.Func.blocks

module Seen = Hashtbl.Make (struct
  type t = Func.t

  let equal = Func.equal
  let hash = hash_func
end)

module Seen_pair = Hashtbl.Make (struct
  type t = Func.t * Func.t

  let equal (a, b) (c, d) = Func.equal a c && Func.equal b d
  let hash (a, b) = (hash_func a * 65599) + hash_func b
end)

(* All valid one-edit variants of [fn], deduplicated, in candidate
   order: the shrinker behind the property-test layer. *)
let shrink_candidates (fn : Func.t) : Func.t list =
  let seen = Seen.create 64 in
  Seen.replace seen fn ();
  List.filter_map
    (fun e ->
      match (try apply e fn with _ -> None) with
      | None -> None
      | Some fn' ->
        if Seen.mem seen fn' then None
        else begin
          Seen.replace seen fn' ();
          if Validate.check_func fn' = [] then Some fn' else None
        end)
    (candidate_edits fn)

(* Greedy first-improvement descent: after every accepted edit the
   candidate list is regenerated from scratch, so coarse edits get
   another chance on the smaller function.  [seen] holds every
   candidate ever tried, which both deduplicates work and
   guarantees termination even for edits (like the frozen-input
   rewrite) that do not shrink the instruction count.  The caller is
   expected to have established [oracle fn0] already; the engine only
   queries the oracle on candidates.  Once [max_oracle_calls] candidates
   have reached the oracle, the descent stops with the current
   function. *)
let minimize ?(max_steps = 1000) ?(max_oracle_calls = max_int) ~(oracle : Func.t -> bool)
    (fn0 : Func.t) : Func.t * stats =
  let exception Oracle_budget_spent in
  let seen = Seen.create 512 in
  let oracle_calls = ref 0 and candidates = ref 0 and accepted = ref 0 in
  Seen.replace seen fn0 ();
  let try_edit fn e =
    if !oracle_calls >= max_oracle_calls then raise Oracle_budget_spent;
    match (try apply e fn with _ -> None) with
    | None -> None
    | Some fn' ->
      if Seen.mem seen fn' then None
      else begin
        Seen.replace seen fn' ();
        incr candidates;
        if Validate.check_func fn' <> [] then None
        else begin
          incr oracle_calls;
          if oracle fn' then Some fn' else None
        end
      end
  in
  let rec fix fn =
    if !accepted >= max_steps then fn
    else
      match List.find_map (try_edit fn) (candidate_edits fn) with
      | Some fn' ->
        incr accepted;
        fix fn'
      | None -> fn
      | exception Oracle_budget_spent -> fn
  in
  let r = fix fn0 in
  ( r,
    { oracle_calls = !oracle_calls;
      candidates = !candidates;
      accepted = !accepted;
      initial_insns = Func.num_insns fn0;
      final_insns = Func.num_insns r;
    } )

(* Reduce a transform pair in lockstep: each edit is applied to both
   sides (an edit inapplicable to one side leaves that side unchanged),
   and a candidate pair survives only if both halves validate and the
   pair still satisfies the oracle — e.g. "the checker still reports a
   counterexample for src vs tgt".  An edit that changes neither side
   is skipped via the seen-set. *)
let minimize_pair ?(max_steps = 1000) ~(oracle : Func.t -> Func.t -> bool)
    ((src0, tgt0) : Func.t * Func.t) : (Func.t * Func.t) * stats =
  let seen = Seen_pair.create 512 in
  let oracle_calls = ref 0 and candidates = ref 0 and accepted = ref 0 in
  Seen_pair.replace seen (src0, tgt0) ();
  let dedup_edits es =
    let tbl = Hashtbl.create 256 in
    List.filter (fun e ->
        if Hashtbl.mem tbl e then false
        else begin
          Hashtbl.replace tbl e ();
          true
        end)
      es
  in
  let try_edit (src, tgt) e =
    let s' = try apply e src with _ -> None in
    let t' = try apply e tgt with _ -> None in
    match (s', t') with
    | None, None -> None
    | _ ->
      let src' = Option.value s' ~default:src in
      let tgt' = Option.value t' ~default:tgt in
      let k = (src', tgt') in
      if Seen_pair.mem seen k then None
      else begin
        Seen_pair.replace seen k ();
        incr candidates;
        if Validate.check_func src' <> [] || Validate.check_func tgt' <> [] then None
        else begin
          incr oracle_calls;
          if oracle src' tgt' then Some (src', tgt') else None
        end
      end
  in
  let edits (src, tgt) =
    dedup_edits (candidate_edits ~other:tgt src @ candidate_edits ~other:src tgt)
  in
  let rec fix pair =
    if !accepted >= max_steps then pair
    else
      match List.find_map (try_edit pair) (edits pair) with
      | Some pair' ->
        incr accepted;
        fix pair'
      | None -> pair
  in
  let ((rs, _) as r) = fix (src0, tgt0) in
  ( r,
    { oracle_calls = !oracle_calls;
      candidates = !candidates;
      accepted = !accepted;
      initial_insns = Func.num_insns src0;
      final_insns = Func.num_insns rs;
    } )
