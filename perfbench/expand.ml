(* The `expand` workload, and the pinned pools it and `serve` draw from.

   A pool entry names a generated program by (generator seed, program
   index, semantics mode): the hunt generator with undef operands and a
   CFG diamond at width 2 builds the source, and the legacy -O2 pipeline
   builds the target.  The expected verdict and the source's bits of
   universal choice are pinned next to it in pool.tsv.  Pinning the
   tuples, rather than re-selecting by choice bits on every run, keeps
   a later change to the counting pass from reshaping the workload.

   `expand` keeps sources with 6-12 bits of choice under old-langref
   and old-unswitch: universal expansion re-encodes the source once per
   assignment, so that is where the time goes.  `serve` keeps cheap
   pairs (at most 4 bits) so the daemon's own layers dominate. *)

open Ub_ir
open Ub_sem
open Common
module Prng = Ub_support.Prng
module Gen = Ub_fuzz.Gen

(* The generator seeds of the two pinned expand pools: [primary] is the
   benchmark's; [confirm] is held out for confirming a claimed gain on
   inputs the change was not tuned on (`--pool confirm`). *)
let primary_seed = 20170618
let confirm_seed = 20171014

type tuple = { gen_seed : int; index : int; mode : string; bits : int; want : cls }

let gen_params = { Gen.default_hunt with Gen.h_undef = true; Gen.h_cfg = true }

let program ~(gen_seed : int) ~(index : int) : Func.t =
  Gen.hunt_func (Prng.create ~seed:(gen_seed + index)) ~name:(Printf.sprintf "f%d" index) gen_params

let legacy (fn : Func.t) : Func.t = Ub_opt.Pipeline.run_o2_func Ub_opt.Pass.legacy fn

let mode_exn (name : string) : Mode.t =
  match Mode.find name with Some m -> m | None -> failwith ("unknown mode " ^ name)

let pair_of (t : tuple) : Pairs.pair =
  let src = program ~gen_seed:t.gen_seed ~index:t.index in
  { Pairs.label = Printf.sprintf "%d/%d/%s" t.gen_seed t.index t.mode;
    mode = mode_exn t.mode;
    src = Printer.func_to_string src;
    tgt = Printer.func_to_string (legacy src);
    want = t.want;
  }

(* ------------------------------------------------------------------ *)
(* pool.tsv                                                            *)
(* ------------------------------------------------------------------ *)

(* One line per tuple: pool, generator seed, index, mode, bits, verdict.
   Lines starting with '#' are comments. *)
let load ~(path : string) ~(pool : string) : tuple list =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         match String.split_on_char '\t' line with
         | [ p; s; i; md; b; v ] when p = pool -> (
           match (int_of_string_opt s, int_of_string_opt i, int_of_string_opt b, cls_of_name v) with
           | Some gen_seed, Some index, Some bits, Some want ->
             Some { gen_seed; index; mode = md; bits; want }
           | _ -> failwith ("pool.tsv: bad line: " ^ line))
         | _ -> None)

(* ------------------------------------------------------------------ *)
(* The workload                                                        *)
(* ------------------------------------------------------------------ *)

let setup ~(path : string) ~(pool : string) ~(seed : int) : Workload.inst =
  let tuples = Array.of_list (load ~path ~pool) in
  if Array.length tuples = 0 then failwith ("pool.tsv: empty pool " ^ pool);
  let pairs = Array.map pair_of tuples in
  (* the order is the seed's; the warm-up is the first 16 file entries,
     whatever the seed, so its cost does not vary between runs *)
  let order = Prng.shuffle (Prng.create ~seed:(0xE4A + seed)) (Array.init (Array.length pairs) Fun.id) in
  let pos = Array.make (Array.length pairs) 0 in
  Array.iteri (fun k i -> pos.(i) <- k) order;
  Pairs.instance ~warm:(List.init 16 (fun i -> pos.(i))) (Array.map (fun i -> pairs.(i)) order)

(* ------------------------------------------------------------------ *)
(* Regenerating the pools                                              *)
(* ------------------------------------------------------------------ *)

(* Scan programs of one generator seed and keep the changed pairs whose
   source bits fall in [lo, hi]: [total] pairs, at most [quota] of each
   verdict class.
   Every kept verdict comes from enumeration and must agree with the
   checker's; a disagreement is reported and the tuple left out. *)
let scan ~(gen_seed : int) ~(modes : string list) ~(lo : int) ~(hi : int) ~(total : int)
    ~(quota : cls -> int) : tuple list =
  let kept = ref [] and index = ref 0 in
  let have c = List.length (List.filter (fun t -> t.want = c) !kept) in
  let open_ c = List.length !kept < total && have c < quota c in
  while List.length !kept < total && !index < 200_000 do
    let src = program ~gen_seed ~index:!index in
    let tgt = legacy src in
    if not (Func.equal src tgt) then
      List.iter
        (fun md ->
          let mode = mode_exn md in
          let bits = try choice_bits mode src with _ -> -1 in
          if bits >= lo && bits <= hi then begin
            let got = cls_of_verdict (Checker.check mode ~src ~tgt) in
            let oracle = enum_class mode ~src ~tgt in
            if got <> oracle || oracle = Unknown then
              Printf.eprintf "skip %d/%d/%s: checker %s, enumeration %s\n%!" gen_seed !index md
                (cls_name got) (cls_name oracle)
            else if open_ oracle then
              kept := { gen_seed; index = !index; mode = md; bits; want = oracle } :: !kept
          end)
        modes;
    incr index
  done;
  List.rev !kept

let regen ~(path : string) ~(expand_n : int) ~(serve_n : int) =
  let expand_modes = [ "old-langref"; "old-unswitch" ] in
  let any _ = expand_n in
  let pools =
    [ ("expand", scan ~gen_seed:primary_seed ~modes:expand_modes ~lo:6 ~hi:12 ~total:expand_n ~quota:any);
      ("confirm", scan ~gen_seed:confirm_seed ~modes:expand_modes ~lo:6 ~hi:12 ~total:expand_n ~quota:any);
      (* a third of the serve pairs are refuted, so its recall has a base *)
      ( "serve",
        scan ~gen_seed:primary_seed ~modes:("proposed" :: expand_modes) ~lo:0 ~hi:4 ~total:serve_n
          ~quota:(function Cex -> serve_n / 3 | _ -> serve_n - (serve_n / 3)) );
    ]
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc
        "# Pinned benchmark pools, written by `bench.exe --regen`.  Columns: pool,\n\
         # generator seed, program index, mode, source choice bits, verdict.\n\
         # Each verdict is the enumeration checker's and agreed with\n\
         # Checker.check when the pool was generated.\n";
      List.iter
        (fun (pool, ts) ->
          List.iter
            (fun t ->
              Printf.fprintf oc "%s\t%d\t%d\t%s\t%d\t%s\n" pool t.gen_seed t.index t.mode t.bits
                (cls_name t.want))
            ts)
        pools)
