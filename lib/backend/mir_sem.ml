(* An executable semantics for MIR, in both its virtual-register form
   (straight out of isel) and its physical-register form (after
   allocation).  This is the "machine" side of translation validation:
   [Tv] runs an IR function under [Ub_sem.Interp] and its compiled MIR
   under this module on the same inputs and checks behaviour inclusion.

   Design notes:

   - The register file holds 64-bit machine words.  A register is either
     [Concrete] or [Vundef] — machine garbage, which is what an
     [Undef_def] (the pinned undef register of Section 6) produces, and
     what every register and spill slot starts as.  *Any* read of a
     [Vundef] register resolves it through the oracle and pins the
     result, modelling the fact that a real machine register holds one
     stable (if unknown) value.  This makes freeze-lowering faithful: a
     [Copy] out of an undef register reads it, so the copy observes one
     fixed value ever after.

   - Width semantics follow x86-64: 32-bit writes zero the upper half,
     8/16-bit writes merge into the low bits, shift counts are masked to
     the operand size, and division by zero (or quotient overflow) is a
     machine trap, reported as [Ub].  Partial writes into a [Vundef]
     register take the undisturbed high bits to be zero rather than
     consuming an oracle choice — one fixed garbage value is a subset of
     machine behaviour, and keeping the choice out of the oracle keeps
     behaviour enumeration small.  Under-enumeration of target behaviour
     is sound for refinement checking (it can only miss violations,
     never invent them).

   - Flags are a four-bit record or [Fundef].  Add/sub/cmp compute the
     full ZF/SF/CF/OF set; logic ops and [Test] clear CF/OF; multiply,
     shifts, division and calls leave the flags undefined, so code that
     consumes stale flags (an injected backend bug) exhibits genuinely
     nondeterministic branching.  Undefined flags resolve one bit at a
     time: a condition reads only the bits it needs, short-circuiting
     left to right, and each bit is one [choose_bool] taken when a
     condition first reads it and pinned until the next flag write.  A
     run depends only on the bits it reads, so this explores the same
     behaviours as choosing all four bits at once, in fewer runs ([CEq]
     costs 2 instead of 16, [CUgt] 3).

   - Memory is the provenance-carrying two-phase memory of the IR
     semantics, shared bit-level representation and all.  Effective
     addresses are computed at 64 bits and wrap to the 32-bit address
     space, matching the IR's 32-bit pointers.  Loads that observe
     undef/poison bits resolve them through the oracle and pin the
     resolved bytes back (a machine byte holds one value), losing any
     provenance those bytes carried.

   - Calls are modelled through the same intrinsic table as the IR
     interpreter — malloc/alloca/free with identical UB and exhaustion
     rules.  Any other callee raises [Unsupported]: translation
     validation *never* silently treats an unmodelled construct as
     refined; [Tv] counts these as drops. *)

open Ub_support
open Ub_sem

exception Unsupported of string
exception Ub_exn of string
exception Out_of_fuel

type value = Concrete of int64 | Vundef

type flagset = { zf : bool; sf : bool; cf : bool; of_ : bool }

(* [Fundef] holds the pinned ZF, SF, CF and OF bits, in that order:
   [None] until a condition first reads the bit. *)
type flags = Flags of flagset | Fundef of bool option array

let fundef () = Fundef (Array.make 4 None)

(* How to address the register file and where the arguments live. *)
type form =
  | Virtual (* vreg-indexed; argument i is vreg i (lane-expanded) *)
  | Physical of Mir.arg_loc list (* Target.num_regs registers; args per regalloc *)

type outcome =
  | Returned of Bitvec.t option (* the returned register, as a 64-bit word *)
  | Ub of string
  | Timeout

let outcome_to_string = function
  | Returned None -> "ret void"
  | Returned (Some bv) -> Printf.sprintf "ret 0x%Lx" (Bitvec.to_uint64 bv)
  | Ub m -> "UB: " ^ m
  | Timeout -> "timeout"

type run_result = { outcome : outcome; mem_fp : string; steps : int }

(* A block's instructions, and for each [Jmp]/[Jcc] among them the index
   of the target block (-1 when no block has that label: the jump raises
   [Unsupported] only when taken). *)
type code = { insts : Mir.inst array; targets : int array }

(* A function resolved once for runs in one form: blocks are array
   indices and every jump names its target block. *)
type prepared = {
  func : Mir.func;
  form : form;
  reg_index : Mir.reg -> int;
  code : code array; (* in block order; the entry block first *)
}

let prepare ~(form : form) (f : Mir.func) : prepared =
  let index = Hashtbl.create 16 in
  (* a label names the last block that carries it *)
  List.iteri (fun i (b : Mir.block) -> Hashtbl.replace index b.Mir.mlabel i) f.Mir.blocks;
  let target = function
    | Mir.Jmp l | Mir.Jcc (_, l) -> Option.value ~default:(-1) (Hashtbl.find_opt index l)
    | _ -> -1
  in
  let code (b : Mir.block) =
    let insts = Array.of_list b.Mir.insts in
    { insts; targets = Array.map target insts }
  in
  let reg_index =
    match form with
    | Virtual -> (
      function
      | Mir.Vreg v -> v
      | Mir.Preg _ -> raise (Unsupported "physical register in virtual form"))
    | Physical _ -> (
      function
      | Mir.Preg p -> p
      | Mir.Vreg _ -> raise (Unsupported "virtual register in physical form"))
  in
  { func = f; form; reg_index; code = Array.of_list (List.map code f.Mir.blocks) }

type state = {
  regs : value array;
  slots : value array;
  mutable flags : flags;
  mem : Memory.t;
  oracle : Oracle.t;
  mutable fuel : int;
  reg_index : Mir.reg -> int;
  code : code array;
}

let wbits = function Mir.W8 -> 8 | Mir.W16 -> 16 | Mir.W32 -> 32 | Mir.W64 -> 64
let wmask w = Bitvec.mask_of_width (wbits w)

(* Resolve a register to one stable concrete 64-bit value. *)
let resolve st i =
  match st.regs.(i) with
  | Concrete v -> v
  | Vundef ->
    let v = Bitvec.to_uint64 (st.oracle.Oracle.choose ~width:64) in
    st.regs.(i) <- Concrete v;
    v

let resolve_slot st s =
  match st.slots.(s) with
  | Concrete v -> v
  | Vundef ->
    let v = Bitvec.to_uint64 (st.oracle.Oracle.choose ~width:64) in
    st.slots.(s) <- Concrete v;
    v

let read_reg st r w = Int64.logand (resolve st (st.reg_index r)) (wmask w)
let read_reg64 st r = resolve st (st.reg_index r)

let write_reg st r w v =
  let i = st.reg_index r in
  let v = Int64.logand v (wmask w) in
  match w with
  | Mir.W64 | Mir.W32 -> st.regs.(i) <- Concrete v (* 32-bit writes zero the upper half *)
  | Mir.W8 | Mir.W16 ->
    (* partial write: merge into the low bits; an undisturbed-garbage
       high part is canonically zero (see module comment) *)
    let old = match st.regs.(i) with Concrete o -> o | Vundef -> 0L in
    st.regs.(i) <- Concrete (Int64.logor (Int64.logand old (Int64.lognot (wmask w))) v)

let operand st w = function
  | Mir.Imm v -> Int64.logand v (wmask w)
  | Mir.Reg r -> read_reg st r w

(* Sign-extend the low [wbits w] bits of [v] to 64 bits. *)
let sext64 w v =
  let sh = 64 - wbits w in
  Int64.shift_right (Int64.shift_left v sh) sh

let sign_bit w = Int64.shift_left 1L (wbits w - 1)
let is_neg w v = not (Int64.equal (Int64.logand v (sign_bit w)) 0L)

let flags_addsub w ~a ~b ~res ~is_sub =
  let res = Int64.logand res (wmask w) in
  let zf = Int64.equal res 0L in
  let sf = is_neg w res in
  let cf =
    if is_sub then Int64.unsigned_compare a b < 0 (* borrow *)
    else Int64.unsigned_compare res a < 0 (* carry *)
  in
  let of_ =
    let x = if is_sub then Int64.logand (Int64.logxor a b) (Int64.logxor a res)
            else Int64.logand (Int64.lognot (Int64.logxor a b)) (Int64.logxor a res)
    in
    not (Int64.equal (Int64.logand x (sign_bit w)) 0L)
  in
  Flags { zf; sf; cf; of_ }

let flags_logic w res =
  let res = Int64.logand res (wmask w) in
  Flags { zf = Int64.equal res 0L; sf = is_neg w res; cf = false; of_ = false }

(* Read flag bit [i] ([get] when the flags are defined), resolving an
   undefined bit through the oracle and pinning it. *)
let flag st i get =
  match st.flags with
  | Flags f -> get f
  | Fundef pins -> (
    match pins.(i) with
    | Some b -> b
    | None ->
      let b = st.oracle.Oracle.choose_bool () in
      pins.(i) <- Some b;
      b)

let zf st = flag st 0 (fun f -> f.zf)
let sf st = flag st 1 (fun f -> f.sf)
let cf st = flag st 2 (fun f -> f.cf)
let of_ st = flag st 3 (fun f -> f.of_)

(* SF <> OF, reading SF first. *)
let sf_ne_of st =
  let s = sf st in
  s <> of_ st

let cond_holds st (c : Mir.cond) =
  match c with
  | Mir.CEq -> zf st
  | Mir.CNe -> not (zf st)
  | Mir.CUgt -> (not (cf st)) && not (zf st)
  | Mir.CUge -> not (cf st)
  | Mir.CUlt -> cf st
  | Mir.CUle -> cf st || zf st
  | Mir.CSgt -> (not (zf st)) && not (sf_ne_of st)
  | Mir.CSge -> not (sf_ne_of st)
  | Mir.CSlt -> sf_ne_of st
  | Mir.CSle -> zf st || sf_ne_of st

(* Effective address: full 64-bit computation, wrapped to the 32-bit
   address space (the IR's pointers are 32-bit and wrap the same way). *)
let eff_addr st (a : Mir.addr) =
  let base = read_reg64 st a.Mir.base in
  let idx =
    match a.Mir.index with
    | None -> 0L
    | Some r -> Int64.mul (read_reg64 st r) (Int64.of_int a.Mir.scale)
  in
  Int64.logand (Int64.add (Int64.add base idx) (Int64.of_int a.Mir.disp)) 0xFFFF_FFFFL

let addr_bv ea = Bitvec.of_int64 ~width:Ub_ir.Types.pointer_bits ea

(* Load [nbytes] from memory, resolving any undef/poison bits through
   the oracle and pinning the resolved bytes back (a machine byte holds
   one stable value; resolved bytes lose their provenance). *)
let load_concrete st ea ~nbytes : int64 =
  match Memory.load_bits st.mem (addr_bv ea) ~nbytes with
  | None -> raise (Ub_exn "invalid load address")
  | Some bits ->
    let unknown = ref [] in
    Array.iteri
      (fun i b -> match b with Value.B0 | Value.B1 -> () | _ -> unknown := i :: !unknown)
      bits;
    let unknown = List.rev !unknown in
    (match unknown with
    | [] -> ()
    | ps ->
      let k = List.length ps in
      let bv = st.oracle.Oracle.choose ~width:k in
      List.iteri
        (fun j p -> bits.(p) <- (if Bitvec.get_bit bv j then Value.B1 else Value.B0))
        ps;
      (* pin the resolved bytes back, byte by byte *)
      let dirty = Array.make nbytes false in
      List.iter (fun p -> dirty.(p / 8) <- true) ps;
      Array.iteri
        (fun byte d ->
          if d then
            ignore
              (Memory.store_bits st.mem
                 (addr_bv (Int64.add ea (Int64.of_int byte)))
                 (Array.sub bits (byte * 8) 8)))
        dirty);
    let v = ref 0L in
    Array.iteri
      (fun i b -> if b = Value.B1 then v := Int64.logor !v (Int64.shift_left 1L i))
      bits;
    !v

let store_concrete st ea v ~nbits =
  let bits =
    Array.init nbits (fun i ->
        if Int64.equal (Int64.logand (Int64.shift_right_logical v i) 1L) 1L then Value.B1
        else Value.B0)
  in
  if not (Memory.store_bits st.mem (addr_bv ea) bits) then
    raise (Ub_exn "invalid store address")

(* The same allocation intrinsics as [Interp.exec_call], with identical
   UB and exhaustion behaviour.  Any other callee is unsupported. *)
let exec_call st callee (args : Mir.reg list) (res : Mir.reg option) =
  if Interp.is_malloc callee then begin
    match args with
    | [ sz ] -> (
      let size = Int64.to_int (Int64.logand (read_reg64 st sz) 0xFFFF_FFFFL) in
      if size = 0 then raise (Ub_exn "malloc of zero bytes")
      else
        match Memory.alloc st.mem ~size with
        | Some base ->
          Option.iter (fun d -> write_reg st d Mir.W64 (Bitvec.to_uint64 base)) res
        | None ->
          if callee = "alloca" then raise (Ub_exn "alloca: out of memory")
          else Option.iter (fun d -> write_reg st d Mir.W64 0L) res)
    | _ -> raise (Ub_exn "malloc with wrong arity")
  end
  else if Interp.is_free callee then begin
    match args with
    | [ p ] ->
      let a = Int64.logand (read_reg64 st p) 0xFFFF_FFFFL in
      if Int64.equal a 0L then () (* free(null) is a no-op *)
      else (
        match Memory.free st.mem (addr_bv a) with
        | Memory.Freed -> ()
        | Memory.Free_double -> raise (Ub_exn "double free")
        | Memory.Free_not_base -> raise (Ub_exn "free of non-allocation address"))
    | _ -> raise (Ub_exn "free with wrong arity")
  end
  else raise (Unsupported (Printf.sprintf "call to @%s" callee))

(* Run block code [c] from instruction [pc]. *)
let rec step st (c : code) pc : Bitvec.t option =
  if pc >= Array.length c.insts then raise (Unsupported "fell off the end of a block")
  else begin
    st.fuel <- st.fuel - 1;
    if st.fuel < 0 then raise Out_of_fuel;
    (match c.insts.(pc) with
    | Mir.Mov (w, d, src) ->
      write_reg st d w (operand st w src);
      step st c (pc + 1)
    | Mir.Bin (k, w, d, src) -> (
      let a = read_reg st d w in
      let b = operand st w src in
      match k with
      | Mir.BAdd ->
        let res = Int64.add a b in
        st.flags <- flags_addsub w ~a ~b ~res ~is_sub:false;
        write_reg st d w res;
        step st c (pc + 1)
      | Mir.BSub ->
        let res = Int64.sub a b in
        st.flags <- flags_addsub w ~a ~b ~res ~is_sub:true;
        write_reg st d w res;
        step st c (pc + 1)
      | Mir.BImul ->
        st.flags <- fundef ();
        write_reg st d w (Int64.mul a b);
        step st c (pc + 1)
      | Mir.BAnd | Mir.BOr | Mir.BXor ->
        let res =
          match k with
          | Mir.BAnd -> Int64.logand a b
          | Mir.BOr -> Int64.logor a b
          | _ -> Int64.logxor a b
        in
        st.flags <- flags_logic w res;
        write_reg st d w res;
        step st c (pc + 1)
      | Mir.BShl | Mir.BShr | Mir.BSar ->
        (* x86 masks the count to the operand size *)
        let count = Int64.to_int (Int64.logand b (if w = Mir.W64 then 63L else 31L)) in
        if count = 0 then step st c (pc + 1) (* count 0: no flag update, value unchanged *)
        else begin
          let res =
            match k with
            | Mir.BShl -> Int64.shift_left a count
            | Mir.BShr -> Int64.shift_right_logical a count
            | _ -> Int64.shift_right (sext64 w a) count
          in
          st.flags <- fundef ();
          write_reg st d w res;
          step st c (pc + 1)
        end)
    | Mir.Neg (w, r) ->
      let a = read_reg st r w in
      let res = Int64.neg a in
      st.flags <- flags_addsub w ~a:0L ~b:a ~res ~is_sub:true;
      write_reg st r w res;
      step st c (pc + 1)
    | Mir.Not (w, r) ->
      (* NOT does not affect flags *)
      write_reg st r w (Int64.lognot (read_reg st r w));
      step st c (pc + 1)
    | Mir.Div { signed; width = w; dst_quot; dst_rem; lhs; rhs } ->
      let a = read_reg st lhs w in
      let b = read_reg st rhs w in
      if Int64.equal b 0L then raise (Ub_exn "division by zero trap");
      let q, r =
        if signed then begin
          let sa = sext64 w a and sb = sext64 w b in
          if Int64.equal sa (sext64 w (sign_bit w)) && Int64.equal sb (-1L) then
            raise (Ub_exn "division overflow trap");
          (Int64.div sa sb, Int64.rem sa sb)
        end
        else (Int64.unsigned_div a b, Int64.unsigned_rem a b)
      in
      st.flags <- fundef ();
      write_reg st dst_quot w q;
      write_reg st dst_rem w r;
      step st c (pc + 1)
    | Mir.Cmp (w, a, b) ->
      let va = read_reg st a w in
      let vb = operand st w b in
      st.flags <- flags_addsub w ~a:va ~b:vb ~res:(Int64.sub va vb) ~is_sub:true;
      step st c (pc + 1)
    | Mir.Test (w, a, b) ->
      st.flags <- flags_logic w (Int64.logand (read_reg st a w) (read_reg st b w));
      step st c (pc + 1)
    | Mir.Setcc (cc, d) ->
      write_reg st d Mir.W8 (if cond_holds st cc then 1L else 0L);
      step st c (pc + 1)
    | Mir.Cmov (cc, w, d, s) ->
      if cond_holds st cc then write_reg st d w (read_reg st s w)
      else if w = Mir.W32 then
        (* a 32-bit cmov zero-extends even when the move is suppressed *)
        write_reg st d w (read_reg st d w);
      step st c (pc + 1)
    | Mir.Movsx { dst; src; from_w; to_w } ->
      write_reg st dst to_w (sext64 from_w (read_reg st src from_w));
      step st c (pc + 1)
    | Mir.Movzx { dst; src; from_w; to_w } ->
      write_reg st dst to_w (read_reg st src from_w);
      step st c (pc + 1)
    | Mir.Lea { dst; addr } ->
      (* LEA computes the full 64-bit address expression, no flags *)
      let base = read_reg64 st addr.Mir.base in
      let idx =
        match addr.Mir.index with
        | None -> 0L
        | Some r -> Int64.mul (read_reg64 st r) (Int64.of_int addr.Mir.scale)
      in
      write_reg st dst Mir.W64 (Int64.add (Int64.add base idx) (Int64.of_int addr.Mir.disp));
      step st c (pc + 1)
    | Mir.Load (w, d, addr) ->
      let nbytes = wbits w / 8 in
      write_reg st d w (load_concrete st (eff_addr st addr) ~nbytes);
      step st c (pc + 1)
    | Mir.Store (w, addr, src) ->
      store_concrete st (eff_addr st addr) (operand st w src) ~nbits:(wbits w);
      step st c (pc + 1)
    | Mir.Copy (w, d, s) ->
      (* a copy out of an undef register freezes it: reading resolves *)
      write_reg st d w (read_reg st s w);
      step st c (pc + 1)
    | Mir.Undef_def r ->
      st.regs.(st.reg_index r) <- Vundef;
      step st c (pc + 1)
    | Mir.Call (callee, args, res) ->
      exec_call st callee args res;
      st.flags <- fundef ();
      step st c (pc + 1)
    | Mir.Push _ | Mir.Pop _ -> raise (Unsupported "push/pop")
    | Mir.Jmp l -> jump st c pc l
    | Mir.Jcc (cc, l) -> if cond_holds st cc then jump st c pc l else step st c (pc + 1)
    | Mir.Ret None -> None
    | Mir.Ret (Some r) -> Some (Bitvec.of_int64 ~width:64 (read_reg64 st r))
    | Mir.Spill_store (s, r) ->
      st.slots.(s) <- Concrete (read_reg64 st r);
      step st c (pc + 1)
    | Mir.Spill_load (s, r) ->
      st.regs.(st.reg_index r) <- Concrete (resolve_slot st s);
      step st c (pc + 1))
  end

and jump st (c : code) pc l =
  let t = c.targets.(pc) in
  if t < 0 then raise (Unsupported (Printf.sprintf "jump to unknown label %s" l))
  else step st st.code.(t) 0

(* Seed an argument register/slot from an IR value: concretes are
   zero-extended to the machine word, poison/undef become machine
   garbage (which any read pins). *)
let value_of_ir (v : Value.t) : value =
  match v with
  | Value.Scalar (Value.Conc bv) -> Concrete (Bitvec.to_uint64 bv)
  | Value.Scalar (Value.Poison | Value.Undef) -> Vundef
  | Value.Vector _ -> raise (Unsupported "vector argument")

(* One run of a prepared function. *)
let exec ?(fuel = 50_000) ?(oracle = Oracle.zeros) ?mem ?phase (p : prepared)
    (args : Value.t list) : run_result =
  let f = p.func in
  let mem = match mem with Some m -> m | None -> Memory.create ?phase () in
  let nregs =
    match p.form with
    | Virtual -> max f.Mir.nvregs (List.length args)
    | Physical _ -> Target.num_regs
  in
  let st =
    { regs = Array.make (max nregs 1) Vundef;
      slots = Array.make (max f.Mir.nslots 1) Vundef;
      flags = fundef ();
      mem;
      oracle;
      fuel;
      reg_index = p.reg_index;
      code = p.code;
    }
  in
  (match p.form with
  | Virtual -> List.iteri (fun i v -> st.regs.(i) <- value_of_ir v) args
  | Physical locs ->
    if List.length locs <> List.length args then
      raise (Unsupported "argument count does not match recorded locations");
    List.iter2
      (fun loc v ->
        match loc with
        | Mir.Loc_reg p -> st.regs.(p) <- value_of_ir v
        | Mir.Loc_slot s ->
          if s >= Array.length st.slots then raise (Unsupported "argument slot out of range")
          else st.slots.(s) <- value_of_ir v)
      locs args);
  if Array.length p.code = 0 then raise (Unsupported "function with no blocks");
  let outcome =
    try Returned (step st p.code.(0) 0) with
    | Ub_exn m -> Ub m
    | Out_of_fuel -> Timeout
  in
  { outcome; mem_fp = Memory.fingerprint mem; steps = fuel - st.fuel }

let run ?fuel ?oracle ?mem ?phase ~(form : form) (f : Mir.func) (args : Value.t list) :
    run_result =
  exec ?fuel ?oracle ?mem ?phase (prepare ~form f) args

(* All behaviours of a prepared function on [args] by exhaustive oracle
   exploration, mirroring [Interp.Behaviors.enumerate].  Outcome plus
   final-memory fingerprint; MIR has no observable events (external
   calls are unsupported, intrinsics are silent on both sides). *)
type behavior = { b_outcome : outcome; b_mem : string }

let enumerate ?(fuel = 50_000) ?(max_runs = 200_000) ?max_width_bits ?phase (p : prepared) args :
    behavior list =
  let runs = ref 0 in
  Fun.protect ~finally:(fun () -> Ub_obs.Obs.count ~by:!runs "tv.mir_runs") @@ fun () ->
  List.sort_uniq compare
    (Oracle.explore ?max_width_bits ~max_runs (fun oracle ->
         incr runs;
         let r = exec ~fuel ~oracle ?phase p args in
         { b_outcome = r.outcome; b_mem = r.mem_fp }))
