(* A corpus of (source, target) texts with expected verdicts, checked
   in-process the way `ubc check` does it: parse both texts, then one
   [Checker.check].  Shared by the `expand` and `search` workloads. *)

open Ub_ir
open Ub_sem
open Common

type pair = { label : string; mode : Mode.t; src : string; tgt : string; want : cls }

let parse (text : string) : Func.t = Parser.parse_func_string text

(* The outside counting pass over distinct pairs: the sum of
   2^(source choice bits), and how long counting took. *)
let count_pass (pairs : pair array) : metric list =
  let t0 = now () in
  let total =
    Workload.span "bench.count" (fun () ->
        Array.fold_left
          (fun acc p -> acc +. Float.pow 2.0 (float_of_int (choice_bits p.mode (parse p.src))))
          0.0 pairs)
  in
  [ m "refine.universal_assignments" "count" total; m "refine.count_s" "s" (now () -. t0) ]

let instance ?(warm : int list = []) (pairs : pair array) : Workload.inst =
  let n = Array.length pairs in
  (* counterexamples seen during timing, replayed afterwards: per unit,
     each distinct argument list and how many answers gave it *)
  let seen = Array.init n (fun _ -> Hashtbl.create 2) in
  let unit (t : tally) (i : int) =
    let p = pairs.(i) in
    let t0 = now () in
    match
      let src, tgt = Workload.span "bench.parse" (fun () -> (parse p.src, parse p.tgt)) in
      Workload.span "bench.check" (fun () -> Checker.check p.mode ~src ~tgt)
    with
    | exception e ->
      t.attempted <- t.attempted + 1;
      fail t (Printf.sprintf "%s: crashed: %s" p.label (Printexc.to_string e))
    | v ->
      let ms = (now () -. t0) *. 1000.0 in
      record t ~label:p.label ~idx:i ~want:p.want ~got:(cls_of_verdict v) ~ms;
      match v with
      | Checker.Counterexample { args; _ } ->
        Hashtbl.replace seen.(i) args (1 + Option.value ~default:0 (Hashtbl.find_opt seen.(i) args))
      | Checker.Unknown r -> count_unknown t r
      | Checker.Refines -> ()
  in
  (* the warm-up units run untimed into a throwaway tally *)
  let scratch = new_tally () in
  List.iter (fun i -> unit scratch (i mod n)) warm;
  Array.iter Hashtbl.reset seen;
  { Workload.pass_units = n;
    measure = Workload.run_passes ~pass_units:n unit;
    unit = Some unit;
    verify =
      (fun t ->
        Array.iteri
          (fun i s ->
            (* a Cex against an expected Refines has already failed *)
            let p = pairs.(i) in
            if p.want = Cex then
              Hashtbl.iter
                (fun args hits ->
                  if not (replay_cex p.mode ~src:(parse p.src) ~tgt:(parse p.tgt) args) then begin
                    fail t ~n:hits (Printf.sprintf "%s: counterexample did not replay" p.label);
                    t.got_cex <- t.got_cex - hits
                  end)
                s)
          seen);
    layers = local_layers;
    extra = (fun () -> count_pass pairs);
    extra_rss_mb = (fun () -> 0.0);
    teardown = (fun () -> ());
  }
