(* A small-step-in-spirit, big-step-in-implementation interpreter for the
   IR under a semantics mode.  Deterministic given an oracle; the
   [Behaviors] module at the bottom enumerates all oracle decisions to
   compute the complete behaviour set of a (small) function, which is the
   ground truth the enumeration-based refinement checker uses.

   A function is first resolved into a [prepared] form and then run; one
   driver runs that form for [run], [profile] and [Behaviors.enumerate],
   and [Eval] stays the one definition of each instruction's result. *)

open Ub_support
open Ub_ir
open Instr

(* Observable events: calls to functions not defined in the module.
   Arguments are recorded as evaluated (possibly poison/undef) — the
   refinement order on traces uses Value.covers pointwise. *)
type event = Call_event of string * Value.t list

type outcome =
  | Returned of Value.t option
  | Ub of string
  | Timeout

type run_result = {
  outcome : outcome;
  events : event list; (* chronological *)
  mem_fp : string; (* fingerprint of final memory *)
  steps : int; (* fuel left (negative after a timeout) *)
}

let outcome_to_string = function
  | Returned None -> "ret void"
  | Returned (Some v) -> "ret " ^ Value.to_string v
  | Ub m -> "UB: " ^ m
  | Timeout -> "timeout"

exception Ub_exn of string
exception Out_of_fuel

(* Allocation builtins: [call ty* @malloc(i32 %n)] / [call ty* @alloca(i32 %n)]
   allocate n bytes; [call void @free(ty* %p)] releases an allocation.
   In the finite phase the two allocators diverge on exhaustion: malloc
   returns null, alloca has nowhere to grow the stack and is UB. *)
let is_malloc name = name = "malloc" || name = "alloca"
let is_free name = name = "free"

(* ------------------------------------------------------------------ *)
(* The prepared form                                                   *)
(* ------------------------------------------------------------------ *)

(* A function resolved once for execution under one mode, then run for
   any number of inputs, oracles and memory phases: registers are frame
   slots, constants are normalised for the mode, blocks are array
   indices, every branch names its target block and the operand each of
   the target's phis takes along that edge, and calls into the module
   name the callee's own prepared form.  Resolution decides nothing the
   run would decide: an unbound register, a phi without an entry for
   the edge taken and a branch to a missing label still fail only when
   a run reaches them, and fuel is spent at the same points. *)

type rop =
  | Slot of int
  | Imm of Value.t (* a constant, normalised for the prepared mode *)

type callee =
  | Alloc (* malloc / alloca *)
  | Free
  | Defined of prepared Lazy.t (* a function of the module *)
  | External

and insn =
  | Op of { dst : int; ins : Instr.t; ops : rop array }
      (* every instruction but phis and calls; [ops] are
         [Instr.operands ins], resolved; [dst] is -1 without a result *)
  | Call_to of { dst : int; ret_ty : Types.t option; name : string; callee : callee;
                 args : rop array }

(* A resolved branch: the target block and, for each of its phis in
   order, the operand flowing in along this edge ([None]: the phi has
   no entry for it). *)
and edge =
  | Edge of { dest : int; incoming : rop option array }
  | No_block of string (* the target label is missing: the error to raise *)

and term =
  | Return of rop
  | Return_void
  | Jump of edge
  | Branch of rop * edge * edge
  | Trap (* unreachable *)

and block = {
  label : label;
  phi_slots : int array;
  body : insn array;
  term : term;
}

and prepared = {
  fn : Func.t;
  mode : Mode.t;
  names : var array; (* register name of each slot, for errors *)
  arg_slots : int array;
  blocks : block array;
}

let resolve ~(mode : Mode.t) ~(callee : string -> callee) (fn : Func.t) : prepared =
  let slots = Hashtbl.create 32 in
  let slot v =
    match Hashtbl.find_opt slots v with
    | Some i -> i
    | None ->
      let i = Hashtbl.length slots in
      Hashtbl.add slots v i;
      i
  in
  let dst = function Some d -> slot d | None -> -1 in
  let op = function
    | Var v -> Slot (slot v)
    | Const c -> Imm (Eval.normalize mode (Value.of_constant c))
  in
  let arg_slots = Array.of_list (List.map (fun (v, _) -> slot v) fn.args) in
  let fblocks = Array.of_list fn.blocks in
  (* a branch goes to the first block with its label *)
  let index = Hashtbl.create 16 in
  Array.iteri
    (fun i (b : Func.block) -> if not (Hashtbl.mem index b.label) then Hashtbl.add index b.label i)
    fblocks;
  let phis (b : Func.block) =
    List.filter_map
      (fun n -> match n.ins with Phi (_, incoming) -> Some (n.def, incoming) | _ -> None)
      b.insns
  in
  let edge (from : Func.block) l =
    match Hashtbl.find_opt index l with
    | None -> No_block (Printf.sprintf "Func.find_block: no block %%%s in @%s" l fn.name)
    | Some dest ->
      let entry (_, incoming) =
        List.find_map (fun (v, p) -> if p = from.label then Some (op v) else None) incoming
      in
      Edge { dest; incoming = Array.of_list (List.map entry (phis fblocks.(dest))) }
  in
  let insn (n : named) =
    match n.ins with
    | Call (ret_ty, name, args) ->
      let callee = if is_malloc name then Alloc else if is_free name then Free else callee name in
      Some
        (Call_to
           { dst = dst n.def; ret_ty; name; callee;
             args = Array.of_list (List.map (fun (_, a) -> op a) args) })
    | Phi _ -> None
    | ins -> Some (Op { dst = dst n.def; ins; ops = Array.of_list (List.map op (operands ins)) })
  in
  let block (b : Func.block) =
    let ps = phis b in
    { label = b.label;
      (* a phi without a result still takes a slot, named "" *)
      phi_slots = Array.of_list (List.map (fun (d, _) -> slot (Option.value ~default:"" d)) ps);
      body = Array.of_list (List.filter_map insn b.insns);
      term =
        (match b.term with
        | Ret (_, x) -> Return (op x)
        | Ret_void -> Return_void
        | Br l -> Jump (edge b l)
        | Cond_br (c, t, e) -> Branch (op c, edge b t, edge b e)
        | Unreachable -> Trap);
    }
  in
  let blocks = Array.map block fblocks in
  let names = Array.make (Hashtbl.length slots) "" in
  Hashtbl.iter (fun v i -> names.(i) <- v) slots;
  { fn; mode; names; arg_slots; blocks }

(* Prepare [fn] for runs under [mode].  Functions of [module_] are
   prepared on their first call, once per [prepare]. *)
let prepare ?(mode = Mode.proposed) ?module_ (fn : Func.t) : prepared =
  let table = Hashtbl.create 8 in
  let callee name = match Hashtbl.find_opt table name with Some p -> Defined p | None -> External in
  Option.iter
    (fun (m : Func.module_) ->
      List.iter
        (fun (f : Func.t) ->
          if not (Hashtbl.mem table f.name) then
            Hashtbl.add table f.name (lazy (resolve ~mode ~callee f)))
        m.funcs)
    module_;
  resolve ~mode ~callee fn

(* ------------------------------------------------------------------ *)
(* The driver                                                          *)
(* ------------------------------------------------------------------ *)

type state = {
  oracle : Oracle.t;
  mem : Memory.t;
  mutable fuel : int;
  mutable events : event list; (* reverse chronological *)
  profile : (string * label, int) Hashtbl.t option; (* block counts, when asked for *)
  externals : string -> Value.t list -> Value.t option;
      (* result for an external call; [Some v]/[None=void] *)
}

let default_external ret_ty _name _args =
  (* externals return zero of their declared type *)
  match ret_ty with
  | None -> None
  | Some ty -> (
    match ty with
    | Types.Vec (n, elt) ->
      Some (Value.Vector (Array.make n (Value.Conc (Bitvec.zero (Types.scalar_bitwidth elt)))))
    | _ -> Some (Value.Scalar (Value.Conc (Bitvec.zero (Types.scalar_bitwidth ty)))))

let spend st n =
  st.fuel <- st.fuel - n;
  if st.fuel < 0 then raise Out_of_fuel

(* The content of a slot no instruction has written yet in this frame. *)
let unbound = Value.Vector (Array.make 0 Value.Poison)

let read (p : prepared) (frame : Value.t array) = function
  | Imm v -> v
  | Slot i ->
    let v = frame.(i) in
    if v == unbound then invalid_arg (Printf.sprintf "Interp: unbound register %%%s" p.names.(i))
    else v

let res_exn = function Ok v -> v | Error m -> raise (Ub_exn m)

let null_ptr = Value.Scalar (Value.Conc (Bitvec.zero Types.pointer_bits))

let rec exec_call st ret_ty name callee (arg_vals : Value.t list) =
  match callee with
  | Alloc -> (
    match arg_vals with
    | [ Value.Scalar (Value.Conc n) ] -> (
      let size = Bitvec.to_uint_exn n in
      if size = 0 then raise (Ub_exn "malloc of zero bytes")
      else
        match Memory.alloc st.mem ~size with
        | Some base -> Some (Value.Scalar (Value.Conc base))
        | None ->
          (* finite phase, out of capacity *)
          if name = "alloca" then raise (Ub_exn "alloca: out of memory") else Some null_ptr)
    | _ -> raise (Ub_exn "malloc with non-concrete size"))
  | Free -> (
    match arg_vals with
    | [ p ] -> (
      match Value.as_scalar p with
      | Value.Poison -> raise (Ub_exn "free of poison pointer")
      | Value.Undef -> raise (Ub_exn "free of undef pointer")
      | Value.Conc addr ->
        if Int64.equal (Bitvec.to_uint64 addr) 0L then None (* free(null) is a no-op *)
        else (
          match Memory.free st.mem addr with
          | Memory.Freed -> None
          | Memory.Free_double -> raise (Ub_exn "double free")
          | Memory.Free_not_base -> raise (Ub_exn "free of non-allocation address")))
    | _ -> raise (Ub_exn "free with wrong arity"))
  | Defined p -> run_body st (Lazy.force p) arg_vals
  | External -> (
    st.events <- Call_event (name, arg_vals) :: st.events;
    match st.externals name arg_vals with
    | Some _ as r -> r
    | None -> default_external ret_ty name arg_vals)

and run_body (st : state) (p : prepared) (arg_vals : Value.t list) : Value.t option =
  if List.length arg_vals <> Array.length p.arg_slots then
    invalid_arg (Printf.sprintf "Interp: @%s called with wrong arity" p.fn.name);
  let frame = Array.make (Array.length p.names) unbound in
  List.iteri (fun i v -> frame.(p.arg_slots.(i)) <- Eval.normalize p.mode v) arg_vals;
  let rd = read p frame in
  let bind d v = if d >= 0 then frame.(d) <- v in
  let mode = p.mode and oracle = st.oracle in
  let rec enter (b : block) (from : block option) (incoming : rop option array) =
    (match st.profile with
    | None -> ()
    | Some counts ->
      let key = (p.fn.name, b.label) in
      Hashtbl.replace counts key (1 + Option.value ~default:0 (Hashtbl.find_opt counts key)));
    (* phis evaluate simultaneously from the edge values *)
    let nphis = Array.length b.phi_slots in
    if nphis > 0 then begin
      let from =
        match from with Some f -> f | None -> invalid_arg "Interp: phi in entry block"
      in
      let values =
        Array.mapi
          (fun k op ->
            match op with
            | Some op -> rd op
            | None ->
              invalid_arg
                (Printf.sprintf "Interp: phi %%%s missing edge from %%%s"
                   p.names.(b.phi_slots.(k)) from.label))
          incoming
      in
      Array.iteri (fun k v -> frame.(b.phi_slots.(k)) <- v) values
    end;
    spend st nphis;
    (* straight-line instructions *)
    for i = 0 to Array.length b.body - 1 do
      spend st 1;
      match b.body.(i) with
        | Call_to { dst; ret_ty; name; callee; args } ->
          Option.iter (bind dst)
            (exec_call st ret_ty name callee (Array.to_list (Array.map rd args)))
        | Op { dst; ins; ops } -> (
          match ins with
          | Binop (op, attrs, ty, _, _) ->
            bind dst (res_exn (Eval.eval_binop mode oracle op attrs ty (rd ops.(0)) (rd ops.(1))))
          | Icmp (pred, ty, _, _) ->
            bind dst (res_exn (Eval.eval_icmp mode oracle pred ty (rd ops.(0)) (rd ops.(1))))
          | Select (_, ty, _, _) ->
            bind dst
              (res_exn (Eval.eval_select mode oracle (rd ops.(0)) ty (rd ops.(1)) (rd ops.(2))))
          | Conv (op, from, _, to_) ->
            bind dst (res_exn (Eval.eval_conv mode oracle op ~from ~to_ (rd ops.(0))))
          | Bitcast (from, _, to_) ->
            bind dst (res_exn (Eval.eval_bitcast mode ~from ~to_ (rd ops.(0))))
          | Freeze (ty, _) -> bind dst (res_exn (Eval.eval_freeze mode oracle ty (rd ops.(0))))
          | Gep { inbounds; pointee; indices; _ } ->
            let idx_vals = List.mapi (fun k (t, _) -> (t, rd ops.(k + 1))) indices in
            bind dst (res_exn (Eval.eval_gep oracle ~inbounds ~pointee (rd ops.(0)) idx_vals))
          | Load (ty, _) -> (
            match Value.as_scalar (rd ops.(0)) with
            | Value.Poison -> raise (Ub_exn "load from poison pointer")
            | Value.Undef -> raise (Ub_exn "load from undef pointer")
            | Value.Conc addr -> (
              match Memory.load_bits st.mem addr ~nbytes:(Types.store_size ty) with
              | None -> raise (Ub_exn "load from invalid address")
              | Some bits ->
                let w = Types.bitwidth ty in
                bind dst (Value.ty_up ~mode ty (Array.sub bits 0 w))))
          | Store (ty, _, _) -> (
            match Value.as_scalar (rd ops.(1)) with
            | Value.Poison -> raise (Ub_exn "store to poison pointer")
            | Value.Undef -> raise (Ub_exn "store to undef pointer")
            | Value.Conc addr ->
              let sv = rd ops.(0) in
              let bits = Value.ty_down ty sv in
              (* pointer-typed stores tag their bytes with the stored
                 pointer's provenance; everything else is provenance-free *)
              let prov =
                match ty with
                | Types.Ptr _ -> (
                  match Value.as_scalar sv with
                  | Value.Conc a -> Memory.prov_of_addr st.mem a
                  | Value.Poison | Value.Undef -> Memory.Prov_none)
                | _ -> Memory.Prov_none
              in
              if not (Memory.store_bits st.mem ~prov addr bits) then
                raise (Ub_exn "store to invalid address"))
          | Extractelement (vty, _, _) ->
            bind dst (res_exn (Eval.eval_extractelement oracle vty (rd ops.(0)) (rd ops.(1))))
          | Insertelement (vty, _, _, _) ->
            bind dst
              (res_exn
                 (Eval.eval_insertelement oracle vty (rd ops.(0)) (rd ops.(1)) (rd ops.(2))))
          | Phi _ | Call _ -> assert false (* resolved apart *))
    done;
    (* terminator *)
    spend st 1;
    match b.term with
    | Return x -> Some (rd x)
    | Return_void -> None
    | Jump e -> follow b e
    | Branch (c, t, e) ->
      let cond = res_exn (Eval.resolve_branch mode oracle (rd c)) in
      follow b (if cond then t else e)
    | Trap -> raise (Ub_exn "reached unreachable")
  and follow b = function
    | Edge { dest; incoming } -> enter p.blocks.(dest) (Some b) incoming
    | No_block msg -> invalid_arg msg
  in
  match p.blocks with
  | [||] -> invalid_arg (Printf.sprintf "Func.entry: %s has no blocks" p.fn.name)
  | blocks -> enter blocks.(0) None [||]

let outcome_of st p args =
  try Returned (run_body st p args) with
  | Ub_exn m -> Ub m
  | Out_of_fuel -> Timeout

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(* One run of a prepared function. *)
let exec ?(oracle = Oracle.zeros) ?(fuel = 200_000) ?(externals = fun _ _ -> None) ?mem ?phase
    (p : prepared) (args : Value.t list) : run_result =
  let mem = match mem with Some m -> m | None -> Memory.create ?phase () in
  let st = { oracle; mem; fuel; events = []; profile = None; externals } in
  let outcome = outcome_of st p args in
  { outcome; events = List.rev st.events; mem_fp = Memory.fingerprint mem; steps = st.fuel }

let run ?mode ?oracle ?fuel ?module_ ?externals ?mem ?phase (fn : Func.t) (args : Value.t list) :
    run_result =
  exec ?oracle ?fuel ?externals ?mem ?phase (prepare ?mode ?module_ fn) args

(* Full execution profile across all functions (for the cost model). *)
let profile ?mode ?(oracle = Oracle.zeros) ?(fuel = 2_000_000) ~module_ (fn : Func.t)
    (args : Value.t list) : ((string * label) * int) list * outcome =
  let counts = Hashtbl.create 64 in
  let st =
    { oracle; mem = Memory.create (); fuel; events = []; profile = Some counts;
      externals = (fun _ _ -> None);
    }
  in
  let outcome = outcome_of st (prepare ?mode ~module_ fn) args in
  (Hashtbl.fold (fun k c acc -> (k, c) :: acc) counts [] |> List.sort compare, outcome)

(* ------------------------------------------------------------------ *)
(* Behaviour enumeration                                               *)
(* ------------------------------------------------------------------ *)

module Behaviors = struct
  (* One abstract behaviour of a run: the outcome together with the
     observable trace.  Memory is included via fingerprint so that
     store-visible transformations can be compared too. *)
  type behavior = {
    b_outcome : outcome;
    b_events : event list;
    b_mem : string;
  }

  let behavior_of_run (r : run_result) =
    { b_outcome = r.outcome; b_events = r.events; b_mem = r.mem_fp }

  let to_string (b : behavior) =
    Printf.sprintf "%s | events:%d | mem:%s" (outcome_to_string b.b_outcome)
      (List.length b.b_events) b.b_mem

  (* All behaviours of a prepared function on [args], by exhaustive
     exploration of oracle decisions.  [max_runs] bounds the exploration;
     raises [Oracle.Exhausted] beyond it.  Counts its runs as
     [interp.runs]. *)
  let enumerate ?(fuel = 10_000) ?(max_runs = 200_000) ?max_width_bits ?phase (p : prepared)
      (args : Value.t list) : behavior list =
    let runs = ref 0 in
    Fun.protect ~finally:(fun () -> Ub_obs.Obs.count ~by:!runs "interp.runs") @@ fun () ->
    List.sort_uniq compare
      (Oracle.explore ?max_width_bits ~max_runs (fun oracle ->
           incr runs;
           behavior_of_run (exec ~oracle ~fuel ?phase p args)))
end
