(* An independent oracle for fault campaigns: every fault of a seeded
   campaign re-run alone, in its own single-lane simulation on the
   naive [Reference] engine, through [Faultsim.run_once], and
   classified here by the rule [Faultsim] documents (a monitor
   violation or a high [err] output is detected; a run that completes
   with bit-identical pixels is masked; anything else is silent).
   It shares no code with the batched campaign harness beyond the
   campaign's inputs: the fault draw, the frame and the budget rule. *)

open Hwpat_rtl
module Faultsim = Hwpat_core.Faultsim

(* One line per fault, so a mismatch prints as a readable diff. *)
let line ~fault ~outcome ~detail ~err_flag ~completed ~cycles =
  Printf.sprintf "%s: %s err=%b completed=%b cycles=%d%s" fault outcome
    err_flag completed cycles
    (match detail with Some d -> " [" ^ d ^ "]" | None -> "")

(* The baseline length and the per-fault lines of the campaign
   [Faultsim.run_campaign ~seed ~faults] on a [frame_size]-square
   frame would produce. *)
let expect ~seed ~faults ~frame_size build =
  let circuit = build () in
  let frame =
    Hwpat_video.Pattern.gradient ~width:frame_size ~height:frame_size ~depth:8
  in
  let expected = Hwpat_video.Frame.pixels frame in
  let single ~budget events =
    Faultsim.run_once ~engine:Cyclesim.Reference ~events ~budget ~frame circuit
  in
  let reference, baseline, _, _, _ = single ~budget:(400 * expected) [] in
  (* The campaign's per-fault budget: four baselines plus slack. *)
  let budget = (4 * baseline) + 64 in
  let verdict e =
    let collected, cycles, monitor, _, err_flag = single ~budget [ e ] in
    let violation = Monitor.first_violation monitor in
    let completed = List.length collected = expected in
    line
      ~fault:(Fault.describe_event_in circuit e)
      ~outcome:
        (if violation <> None || err_flag then "detected"
         else if completed && collected = reference then "masked"
         else "silent")
      ~detail:(Option.map (Format.asprintf "%a" Monitor.pp_violation) violation)
      ~err_flag ~completed ~cycles
  in
  ( baseline,
    List.map verdict
      (Fault.random_campaign ~seed ~n:faults ~max_cycle:baseline circuit) )

(* Fail unless [summary] agrees with the oracle on the baseline and on
   every fault. *)
let check ~what (baseline, lines) (summary : Faultsim.summary) =
  Alcotest.(check int)
    (what ^ ": baseline cycles") baseline summary.Faultsim.baseline_cycles;
  Alcotest.(check (list string))
    (what ^ ": every fault as its single-fault run")
    lines
    (List.map
       (fun (r : Faultsim.result) ->
         line ~fault:r.description
           ~outcome:(Faultsim.outcome_name r.outcome)
           ~detail:r.detail ~err_flag:r.err_flag ~completed:r.completed
           ~cycles:r.cycles)
       summary.Faultsim.results)
