(* Nondeterminism oracles.

   The operational semantics is nondeterministic in three places: each
   *use* of an undef value materializes an arbitrary concrete value; each
   dynamic execution of [freeze] on poison/undef picks an arbitrary
   concrete value; and, in Branch_nondet modes, branching on poison picks
   an arm.  An oracle resolves these choices, making a run deterministic
   and replayable.

   The [Explorer] sub-module enumerates *all* choice sequences (DFS with
   backtracking over recorded decision points), which is how the
   enumeration-based refinement checker computes the full behaviour set
   of a small function. *)

open Ub_support

type t = {
  (* [choose ~width] returns a concrete bitvector of the given width. *)
  choose : width:int -> Bitvec.t;
  (* [choose_bool] for branch-arm picks. *)
  choose_bool : unit -> bool;
}

(* Everything-zero oracle: undef materializes as 0, frozen poison is 0,
   nondet branches take the false arm.  Matches the backend lowering of
   pinned undef registers and is the default for deterministic runs. *)
let zeros = { choose = (fun ~width -> Bitvec.zero width); choose_bool = (fun () -> false) }

let of_prng rng =
  { choose = (fun ~width -> Prng.bitvec rng ~width);
    choose_bool = (fun () -> Prng.bool rng);
  }

(* Replay a recorded list of raw choices; zero-extends past the end. *)
let replay (raw : int64 list) =
  let rest = ref raw in
  let next () =
    match !rest with
    | [] -> 0L
    | x :: xs ->
      rest := xs;
      x
  in
  { choose = (fun ~width -> Bitvec.of_int64 ~width (next ()));
    choose_bool = (fun () -> not (Int64.equal (next ()) 0L));
  }

module Explorer = struct
  (* DFS over the tree of oracle decisions.  A run is made with a forced
     prefix of decisions; fresh decision points beyond the prefix take
     value 0 and are recorded together with their domain size.  After the
     run, [advance] increments the last decision that still has room and
     drops everything after it; when no decision can be advanced the
     exploration is complete.

     Domains: a [width]-bit choice has 2^width values, and a boolean
     choice has 2.  A choice wider than [max_width_bits] is sampled at 0
     and all-ones only, an under-approximation.  The IR side of the
     experiments runs at small widths and never reaches it.  [Mir_sem]
     reaches it whenever a run reads an undefined 64-bit register or
     spill slot: in one traced `perfbench hunt --seed 1` run, all
     540,481 wide choices were such reads.  Under-enumerating the
     machine side can miss a violation but never invent one.  Raising
     [Exhausted] there instead would make every translation validation
     that reads an undefined register [Unsupported]. *)

  type decision = { domain : int; mutable taken : int }

  type state = {
    mutable prefix : decision list; (* reverse order: most recent first *)
    mutable cursor : decision list; (* suffix of prefix still to replay, in order *)
    max_width_bits : int;
  }

  let create ?(max_width_bits = 12) () = { prefix = []; cursor = []; max_width_bits }

  (* Begin a run: replay decisions already in [prefix] in order. *)
  let start st = st.cursor <- List.rev st.prefix

  let decide st ~domain ~(value_of : int -> 'a) : 'a =
    match st.cursor with
    | d :: rest ->
      st.cursor <- rest;
      value_of d.taken
    | [] ->
      let d = { domain; taken = 0 } in
      st.prefix <- d :: st.prefix;
      value_of 0

  let oracle st : t =
    { choose =
        (fun ~width ->
          if width <= st.max_width_bits then
            decide st ~domain:(1 lsl width) ~value_of:(fun i -> Bitvec.of_int ~width i)
          else
            decide st ~domain:2 ~value_of:(fun i ->
                if i = 0 then Bitvec.zero width else Bitvec.all_ones width));
      choose_bool = (fun () -> decide st ~domain:2 ~value_of:(fun i -> i = 1));
    }

  (* Move to the next unexplored choice sequence; false when done. *)
  let advance st =
    let rec go = function
      | [] -> false
      | d :: rest ->
        if d.taken + 1 < d.domain then begin
          d.taken <- d.taken + 1;
          st.prefix <- d :: rest;
          true
        end
        else go rest
    in
    go st.prefix

  (* Total runs explored so far would be the product of domains; callers
     bound exploration with [max_runs] in the driver below. *)
end

(* Run [f] once per choice sequence, collecting results, up to
   [max_runs] runs (raises [Exhausted] beyond that — callers treat it as
   "unknown").  [f] receives a fresh oracle each run. *)
exception Exhausted

let explore ?(max_runs = 100_000) ?max_width_bits (f : t -> 'a) : 'a list =
  let st = Explorer.create ?max_width_bits () in
  let results = ref [] in
  let runs = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    incr runs;
    if !runs > max_runs then raise Exhausted;
    Explorer.start st;
    results := f (Explorer.oracle st) :: !results;
    continue_ := Explorer.advance st
  done;
  List.rev !results
