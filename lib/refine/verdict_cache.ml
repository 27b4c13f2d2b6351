(* Typed adapter between [Checker.verdict] and the raw-string
   [Ub_exec.Cache], whose records are the verdict codec below.  The
   cache key is the canonical hash of

     (printed source fn, printed target fn, semantics mode, checker kind,
      SAT budget [, explicit input tuples])

   where the functions are printed from their parsed form, so textual
   noise in the original IR (whitespace, comment placement) cannot split
   cache entries for the same function.  The SAT budget is part of the
   key because a verdict is only as strong as the search that produced
   it: the shrink oracles deliberately run with reduced universal-expansion
   and conflict budgets, and serving one of their entries to a
   full-budget caller (or vice versa) would silently change what a
   "Refines" means.  [Unknown] verdicts are never cached: they depend on
   resource budgets, and a later run with a bigger budget (or a fixed
   encoder) should get the chance to do better. *)

open Ub_ir
open Ub_sem

(* The checker-kind component of the key.  Bump when a checker's verdict
   semantics change incompatibly.  v2: the SAT budget joined the key, so
   every v1 entry (ambiguous about its budget) must be invalidated.  v3
   (combined only): the [ub=] field bounds the choice bits the
   refinement body reads, no longer the source's raw choice bits, so a
   v2 entry means a different budget.  Enumeration ignores the budget
   and keeps its tag. *)
let combined_kind = "combined-v3"
let enum_kind = "enum-v2"

let key ?(inputs : Value.t list list option)
    ?(max_universal_bits = Checker.default_max_universal_bits)
    ?(max_conflicts = Checker.default_max_conflicts) ~(mode : Mode.t)
    ~(kind : string) ~(src : Func.t) ~(tgt : Func.t) () : string =
  let parts =
    [ Printer.func_to_string src;
      Printer.func_to_string tgt;
      mode.Mode.name;
      kind;
      Printf.sprintf "ub=%d,mc=%d" max_universal_bits max_conflicts;
      (match inputs with
      | None -> ""
      | Some ts ->
        String.concat ";"
          (List.map (fun args -> String.concat "," (List.map Value.to_string args)) ts));
    ]
  in
  Ub_exec.Cache.key ~parts

(* The verdict codec: the one serialized form of a check's outcome (a
   verdict, or the pool's timeout or crash).  The journal stores it;
   the wire's verdict reply is it plus the reply's own members.

     {"codec":1,"kind":K,["witness":W,"args":[A,..]|"reason":R,]..,"sum":S}

   An argument is a lane, or a list of lanes for a vector; a lane is
   "poison", "undef" or "i<width> 0x<bits>", so a value keeps the width
   [Value.to_string] drops.  [S] is the [digest] of the other members:
   a changed or lost byte is an [Error], never a verdict. *)

module Json = Ub_obs.Json
module Pool = Ub_exec.Pool
module Bitvec = Ub_support.Bitvec

type outcome = Checker.verdict Pool.result

let codec_version = 1

let kind : outcome -> string = function
  | Pool.Done Checker.Refines -> "refines"
  | Pool.Done (Checker.Counterexample _) -> "counterexample"
  | Pool.Done (Checker.Unknown _) -> "unknown"
  | Pool.Timed_out -> "timeout"
  | Pool.Crashed _ -> "crashed"

let lane_text : Value.scalar -> string = function
  | Value.Poison -> "poison"
  | Value.Undef -> "undef"
  | Value.Conc bv -> Printf.sprintf "i%d 0x%Lx" (Bitvec.width bv) (Bitvec.to_uint64 bv)

let arg_to_json : Value.t -> Json.t = function
  | Value.Scalar s -> Json.Str (lane_text s)
  | Value.Vector ls -> Json.List (Array.to_list (Array.map (fun s -> Json.Str (lane_text s)) ls))

let lane_of_json : Json.t -> Value.scalar = function
  | Json.Str "poison" -> Value.Poison
  | Json.Str "undef" -> Value.Undef
  | Json.Str t -> (
    match Scanf.sscanf_opt t "i%u 0x%Lx%!" (fun w b -> (w, b)) with
    | Some (width, b)
      when width >= 1 && width <= Bitvec.max_width
           && Int64.equal (Bitvec.to_uint64 (Bitvec.make ~width b)) b ->
      Value.Conc (Bitvec.make ~width b)
    | _ -> raise Exit)
  | _ -> raise Exit

let arg_of_json : Json.t -> Value.t = function
  | Json.List ls -> Value.Vector (Array.of_list (List.map lane_of_json ls))
  | j -> Value.Scalar (lane_of_json j)

(* MD5 of the members' structure: a tag per value, strings and lists
   with their lengths, numbers by their bits.  Printing the members
   would cost more than the rest of a reply's encoding. *)
let digest members =
  let b = Buffer.create 256 in
  let tag c n = Buffer.add_char b c; Buffer.add_int32_le b (Int32.of_int n) in
  let rec add = function
    | Json.Null -> tag 'n' 0
    | Json.Bool x -> tag 'b' (Bool.to_int x)
    | Json.Num f -> tag '#' 0; Buffer.add_int64_le b (Int64.bits_of_float f)
    | Json.Str s -> tag '"' (String.length s); Buffer.add_string b s
    | Json.List xs -> tag '[' (List.length xs); List.iter add xs
    | Json.Obj kvs ->
      tag '{' (List.length kvs);
      List.iter (fun (k, v) -> add (Json.Str k); add v) kvs
  in
  add (Json.Obj members);
  Digest.to_hex (Digest.string (Buffer.contents b))

let to_json ?(extra = []) (r : outcome) : Json.t =
  let members =
    ("codec", Json.int codec_version) :: ("kind", Json.Str (kind r))
    :: (match r with
       | Pool.Done (Checker.Counterexample { args; witness }) ->
         [ ("witness", Json.Str witness); ("args", Json.List (List.map arg_to_json args)) ]
       | Pool.Done (Checker.Unknown reason) | Pool.Crashed reason -> [ ("reason", Json.Str reason) ]
       | Pool.Done Checker.Refines | Pool.Timed_out -> [])
    @ extra
  in
  Json.Obj (members @ [ ("sum", Json.Str (digest members)) ])

let of_json (j : Json.t) : (outcome, string) result =
  let str k = match Json.member k j with Some (Json.Str s) -> s | _ -> raise Exit in
  match j with
  | Json.Obj kvs when Json.int_field j "codec" = Some codec_version -> (
    match List.rev kvs with
    | ("sum", Json.Str sum) :: rest when String.equal (digest (List.rev rest)) sum -> (
      try
        Ok
          (match str "kind" with
          | "refines" -> Pool.Done Checker.Refines
          | "counterexample" ->
            let args = match Json.member "args" j with Some (Json.List a) -> a | _ -> raise Exit in
            let args = List.map arg_of_json args in
            Pool.Done (Checker.Counterexample { args; witness = str "witness" })
          | "unknown" -> Pool.Done (Checker.Unknown (str "reason"))
          | "timeout" -> Pool.Timed_out
          | "crashed" -> Pool.Crashed (str "reason")
          | _ -> raise Exit)
      with Exit -> Error "malformed verdict")
    | _ -> Error "verdict checksum mismatch")
  | _ -> Error "not a verdict of this codec"

(* A journal record is the magic, then [to_json]'s text.  A text that
   reads the same but prints otherwise (a capital \u digit) is refused
   too, so every changed byte is stale; so is the first format, "UBVC1". *)
let magic = "UBVC2\n"

let encode (v : Checker.verdict) : string = magic ^ Json.to_string (to_json (Pool.Done v))

let decode (s : string) : Checker.verdict option =
  let m = String.length magic in
  if not (String.starts_with ~prefix:magic s) then None
  else
    let text = String.sub s m (String.length s - m) in
    match Json.of_string text with
    | Ok j when String.equal (Json.to_string j) text -> (
      match of_json j with Ok (Pool.Done v) -> Some v | _ -> None)
    | _ -> None

(* This process's lookups that hit and that missed (stale is a miss). *)
let lookups () = Ub_obs.Obs.(counter_value "verdict_cache.hit", counter_value "verdict_cache.miss")

let cacheable = function Checker.Unknown _ -> false | Checker.Refines | Checker.Counterexample _ -> true

let find (cache : Ub_exec.Cache.t) k : Checker.verdict option =
  let module Obs = Ub_obs.Obs in
  let record = Ub_exec.Cache.find cache k in
  let v = Option.bind record decode in
  (* present but undecodable (magic/format drift or damage): a miss for
     the caller, but worth its own counter — a high stale rate means the
     on-disk cache is full of dead entries *)
  if Option.is_some record && Option.is_none v then Obs.count "verdict_cache.stale";
  Obs.count (if Option.is_some v then "verdict_cache.hit" else "verdict_cache.miss");
  v

let store (cache : Ub_exec.Cache.t) k (v : Checker.verdict) : unit =
  if cacheable v then begin
    Ub_obs.Obs.count "verdict_cache.store";
    Ub_exec.Cache.store cache k (encode v)
  end
