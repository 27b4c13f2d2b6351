(* Injected backend bugs: small, realistic miscompilations applied to
   the MIR, either before register allocation (phi-elimination and
   isel-level bugs) or after (spill bugs).  Each is the seeded ground
   truth for the hunting farm's recall benchmark, mirroring the IR-level
   catalog in [Ub_opt.Inject] — the IR entry declares the bug by name,
   the hunt lane compiles each generated program once with the bug and
   asks [Tv] whether that compile still refines.

   A bug that does not change the MIR of a given function is simply a
   no-op there; the backend generator is shaped so each bug's trigger
   pattern (parallel-move cycles, selects, spills, protected branches)
   occurs with high probability. *)

type stage = Pre_ra | Post_ra

type bug = {
  b_name : string;
  b_doc : string;
  b_stage : stage;
  b_apply : Mir.func -> Mir.func;
}

let map_blocks f (fn : Mir.func) =
  { fn with Mir.blocks = List.map (fun (b : Mir.block) -> { b with Mir.insts = f b.Mir.insts }) fn.Mir.blocks }

(* Split a block's instruction list into (body, terminator group), the
   same grouping isel uses when splicing phi copies. *)
let split_term insts =
  let rec go acc = function
    | [] -> (List.rev acc, [])
    | rest
      when (match rest with
           | Mir.Cmp _ :: Mir.Jcc _ :: _ | Mir.Test _ :: Mir.Jcc _ :: _ -> true
           | Mir.Jcc _ :: _ | Mir.Jmp _ :: _ | Mir.Ret _ :: _ -> true
           | _ -> false) ->
      (List.rev acc, rest)
    | i :: rest -> go (i :: acc) rest
  in
  go [] insts

(* The trailing run of [Copy] instructions at the end of the body — the
   parallel-move sequence phi elimination inserted. *)
let split_copies body =
  let rec take copies = function
    | (Mir.Copy _ as c) :: rest -> take (c :: copies) rest
    | rest -> (List.rev rest, copies)
  in
  take [] (List.rev body)

(* Drop the last copy of the first parallel-move run with at least two
   copies: the phi destination it fed keeps whatever the register held
   before the edge was taken. *)
let drop_parallel_move_copy fn =
  let done_ = ref false in
  map_blocks
    (fun insts ->
      if !done_ then insts
      else begin
        let body, term = split_term insts in
        let prefix, copies = split_copies body in
        if List.length copies < 2 then insts
        else begin
          done_ := true;
          let n = List.length copies in
          prefix @ List.filteri (fun i _ -> i < n - 1) copies @ term
        end
      end)
    fn

(* Forward-substitute the parallel-move temporaries away: rewrite
   [t := s; ...; d := t] into the direct [d := s] and delete the
   temporary copy.  Correct for straight-line renames, wrong for swap
   and lost-copy cycles: the now-sequential copies overwrite a source
   before it is read. *)
let swap_without_temp fn =
  map_blocks
    (fun insts ->
      let body, term = split_term insts in
      let prefix, copies = split_copies body in
      if copies = [] then insts
      else begin
        (* substitute away temps that are written once and read exactly
           once later in the run *)
        let arr = Array.of_list copies in
        let n = Array.length arr in
        let removed = Array.make n false in
        for i = 0 to n - 1 do
          match arr.(i) with
          | Mir.Copy (_, t, s) ->
            let readers = ref [] and redefined = ref false in
            for j = i + 1 to n - 1 do
              match arr.(j) with
              | Mir.Copy (w', d', s') ->
                if s' = t then readers := (j, w', d') :: !readers;
                if d' = t then redefined := true
              | _ -> ()
            done;
            (match !readers with
            | [ (j, w, d) ] when not !redefined ->
              arr.(j) <- Mir.Copy (w, d, s);
              removed.(i) <- true
            | _ -> ())
          | _ -> ()
        done;
        let copies' = List.filteri (fun i _ -> not removed.(i)) (Array.to_list arr) in
        prefix @ copies' @ term
      end)
    fn

(* Delete the flag-materializing [Test] in front of a [Cmov]: the cmov
   then consumes whatever stale flags the last arithmetic instruction
   left behind (or undefined flags), instead of testing the select's
   condition register. *)
let cmov_stale_flags fn =
  let done_ = ref false in
  map_blocks
    (fun insts ->
      let rec go = function
        | Mir.Test _ :: (Mir.Cmov _ :: _ as rest) when not !done_ ->
          done_ := true;
          rest
        | i :: rest -> i :: go rest
        | [] -> []
      in
      go insts)
    fn

(* Collapse every spill slot onto slot 0: two spilled values alias the
   same stack location, so the second spill store clobbers the first. *)
let spill_slot_alias fn =
  if fn.Mir.nslots < 2 then fn
  else
    map_blocks
      (List.map (function
        | Mir.Spill_store (_, r) -> Mir.Spill_store (0, r)
        | Mir.Spill_load (_, r) -> Mir.Spill_load (0, r)
        | i -> i))
      fn

(* Propagate the compared-against constant into the *wrong* arm of a
   protected branch: after [cmp r, #c; je t; jmp e], the fall-through
   block e is exactly where r ≠ c, yet r's uses there are rewritten
   to #c. *)
let const_prop_bad_arm fn =
  let target = ref None in
  List.iter
    (fun (b : Mir.block) ->
      if !target = None then
        match snd (split_term b.Mir.insts) with
        | [ Mir.Cmp (_, r, Mir.Imm c); Mir.Jcc (Mir.CEq, _); Mir.Jmp e ] ->
          target := Some (r, c, e)
        | _ -> ())
    fn.Mir.blocks;
  match !target with
  | None -> fn
  | Some (r, c, e) ->
    { fn with
      Mir.blocks =
        List.map
          (fun (b : Mir.block) ->
            if b.Mir.mlabel <> e then b
            else
              let subst = function Mir.Reg r' when r' = r -> Mir.Imm c | op -> op in
              { b with
                Mir.insts =
                  List.map
                    (function
                      | Mir.Mov (w, d, s) -> Mir.Mov (w, d, subst s)
                      | Mir.Bin (k, w, d, s) -> Mir.Bin (k, w, d, subst s)
                      | Mir.Cmp (w, a, s) -> Mir.Cmp (w, a, subst s)
                      | Mir.Store (w, a, s) -> Mir.Store (w, a, subst s)
                      | i -> i)
                    b.Mir.insts;
              })
          fn.Mir.blocks;
    }

let all : bug list =
  [ { b_name = "drop-parallel-move-copy";
      b_doc = "phi elimination loses one copy of a parallel move";
      b_stage = Pre_ra;
      b_apply = drop_parallel_move_copy;
    };
    { b_name = "swap-without-temp";
      b_doc = "parallel-move temporaries forward-substituted away; swap/lost-copy cycles break";
      b_stage = Pre_ra;
      b_apply = swap_without_temp;
    };
    { b_name = "cmov-stale-flags";
      b_doc = "select's Test deleted; Cmov reads stale or undefined flags";
      b_stage = Pre_ra;
      b_apply = cmov_stale_flags;
    };
    { b_name = "spill-slot-alias";
      b_doc = "all spill slots collapse onto slot 0";
      b_stage = Post_ra;
      b_apply = spill_slot_alias;
    };
    { b_name = "const-prop-bad-arm";
      b_doc = "compared constant propagated into the not-equal arm of a protected branch";
      b_stage = Pre_ra;
      b_apply = const_prop_bad_arm;
    };
  ]

let find name = List.find_opt (fun b -> b.b_name = name) all
let find_exn name =
  match find name with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "Mir_inject.find_exn: unknown bug %s" name)

(* Structural change detection, applied by [Compile.compile_func] to
   the MIR just before and just after [b_apply]: the hunt only checks
   functions the bug actually perturbed. *)
let changed (a : Mir.func) (b : Mir.func) =
  let shape (f : Mir.func) =
    List.map (fun (bl : Mir.block) -> (bl.Mir.mlabel, bl.Mir.insts)) f.Mir.blocks
  in
  shape a <> shape b
