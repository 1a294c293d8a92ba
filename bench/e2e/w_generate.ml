(* generate: §3.4's "generate versions of each component for every
   physical target and range of configuration parameters".  Every
   legal container configuration is generated and linted, the
   queue/stack/vector ones are also elaborated, optimised and
   estimated, and one characterisation sweep closes the iteration.
   Almost nothing is simulated frame by frame. *)

open Hwpat_meta
module Elaborate = Hwpat_containers.Elaborate
module Optimize = Hwpat_rtl.Optimize
module Netlist_stats = Hwpat_rtl.Netlist_stats
module Techmap = Hwpat_synthesis.Techmap
module Timing = Hwpat_synthesis.Timing
module Design_space = Hwpat_synthesis.Design_space
module Characterize = Hwpat_core.Characterize
module Experiment = Hwpat_core.Experiment
module Trace = Hwpat_obs.Trace

let rec subsets = function
  | [] -> [ [] ]
  | x :: rest ->
    let s = subsets rest in
    List.map (fun l -> x :: l) s @ s

(* Every legal Config: kind x target x width {8,16} x depth
   {64,512,4096} x non-empty ops subset x (no protection, or one legal
   protection). *)
let all_configs () =
  List.concat_map
    (fun kind ->
      List.concat_map
        (fun target ->
          let protections =
            (false, None)
            :: List.map
                 (function
                   | Metamodel.Parity -> (true, None)
                   | Metamodel.Op_watchdog -> (false, Some 16))
                 (Metamodel.legal_protections target)
          in
          List.concat_map
            (fun elem_width ->
              List.concat_map
                (fun depth ->
                  List.concat_map
                    (fun ops_used ->
                      List.map
                        (fun (parity, op_timeout) ->
                          Config.make ~instance_name:"gen" ~kind ~target
                            ~elem_width ~depth ~ops_used ~parity ?op_timeout ())
                        protections)
                    (List.filter (( <> ) []) (subsets (Metamodel.operations kind))))
                [ 64; 512; 4096 ])
            [ 8; 16 ])
        (Metamodel.legal_targets kind))
    Metamodel.all_containers

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* The configs in a seeded order; the smoke run takes the first 50. *)
let prepare (o : Workload.opts) =
  let configs = shuffle (Random.State.make [| o.seed; 3 |]) (all_configs ()) in
  if o.smoke then List.filteri (fun i _ -> i < 50) configs else configs

let setup o = ignore (prepare o)

let elaboratable (c : Config.t) =
  match c.Config.kind with
  | Metamodel.Queue | Metamodel.Stack | Metamodel.Vector -> true
  | _ -> false

(* One config's outputs, reduced to what must repeat exactly. *)
type config_out = {
  digest : string;  (* of the generated VHDL and every estimate *)
  lint_ok : bool;
  full_ops : bool;  (* every operation of the kind kept: nothing pruned *)
  nodes : int * int;  (* full and optimised netlist nodes; traced only *)
}

(* [tick layer] charges the time since the previous tick to [layer]:
   a config makes about a dozen layer calls, too many for spans. *)
let run_config ~tick ~traced (c : Config.t) =
  let container = Codegen.generate_container c in
  tick "codegen.container";
  let iterator = Codegen.generate_iterator c in
  tick "codegen.iterator";
  let issues =
    (if Config.protected c then
       Vhdl_lint.check_protected ~parity:c.Config.parity
         ~op_timeout:(c.Config.op_timeout <> None) container
     else Vhdl_lint.check container)
    @ Vhdl_lint.check iterator
  in
  tick "vhdl_lint.check";
  let estimates, nodes =
    if not (elaboratable c) then ("", (0, 0))
    else begin
      let full = Elaborate.full c in
      tick "elaborate.full";
      let pruned = Elaborate.pruned c in
      tick "elaborate.pruned";
      let opt = Optimize.circuit full in
      tick "optimize.circuit";
      let r = Techmap.estimate opt in
      tick "techmap.estimate";
      let t = Timing.analyze opt in
      tick "timing.analyze";
      let nodes =
        if traced then begin
          let n =
            ( (Netlist_stats.of_circuit full).Netlist_stats.nodes,
              (Netlist_stats.of_circuit opt).Netlist_stats.nodes )
          in
          tick "netlist_stats.of_circuit";
          n
        end
        else (0, 0)
      in
      ( Printf.sprintf "%d/%d/%d/%d %.6f %d %d" r.Techmap.luts r.Techmap.ffs
          r.Techmap.brams r.Techmap.lutram_luts t.Timing.fmax_mhz
          t.Timing.logic_levels
          (List.length (Hwpat_rtl.Circuit.inputs pruned)),
        nodes )
    end
  in
  let digest = Digest.to_hex (Digest.string (container ^ iterator ^ estimates)) in
  tick "hwbench.check";
  {
    digest;
    lint_ok = issues = [];
    full_ops =
      List.length c.Config.ops_used = List.length (Metamodel.operations c.Config.kind);
    nodes;
  }

type result = {
  outs : config_out option list;  (* None: the config raised *)
  sweep : string;  (* Design_space JSON of the characterisation sweep *)
  unmeasurable : int;
}

let run configs ~trace ~clock =
  let tick = match clock with Some c -> Layers.tick c | None -> ignore in
  let timed =
    List.map
      (fun c ->
        Workload.timed (fun () ->
            Option.iter Layers.start clock;
            try Some (run_config ~tick ~traced:(clock <> None) c)
            with Failure _ | Invalid_argument _ -> None))
      configs
  in
  let sweep_s, candidates =
    Workload.timed (fun () ->
        Trace.span trace "characterize.sweep" (fun () ->
            Characterize.sweep ~trace ~jobs:Machine.jobs ()))
  in
  let outs = List.map snd timed in
  ( {
      Workload.ops = sweep_s :: List.map fst timed;
      attempted = List.length configs + 1;
      failed = List.length (List.filter Option.is_none outs);
    },
    {
      outs;
      sweep = Design_space.to_json candidates;
      unmeasurable = List.length (Design_space.unmeasurable candidates);
    } )

let iteration configs () = run configs ~trace:Trace.null ~clock:None
let traced configs trace clock = run configs ~trace ~clock:(Some clock)

(* The sweep's own spans (sweep, point:...) belong to it, on every lane. *)
let layer_of name parent =
  if String.contains name '.' then name
  else Option.value parent ~default:"characterize.sweep"

let lint_failures r =
  List.length (List.filter (function Some o -> not o.lint_ok | None -> false) r.outs)

(* Table 3, pattern against custom, once per run outside the timed
   loop: deterministic, so the overheads are exact. *)
let table3_metrics () =
  let rows = Experiment.table3 () in
  if not (List.for_all (fun r -> r.Experiment.functional_match) rows) then
    failwith "generate: Table 3 designs disagree with the software reference";
  let cmp r = r.Experiment.comparison in
  let luts r = ((cmp r).Hwpat_synthesis.Resource_report.pattern.luts,
                (cmp r).Hwpat_synthesis.Resource_report.custom.luts) in
  let clk r = ((cmp r).Hwpat_synthesis.Resource_report.pattern.clk_mhz,
               (cmp r).Hwpat_synthesis.Resource_report.custom.clk_mhz) in
  let max_over f = List.fold_left (fun m r -> Float.max m (f r)) neg_infinity rows in
  let key label =
    String.concat "" (String.split_on_char ' ' label)
  in
  List.map
    (fun r ->
      let p, c = luts r in
      ("table3.lut_delta." ^ key r.Experiment.label, float_of_int (p - c)))
    rows
  @ [
      ( "table3.lut_overhead_pct",
        max_over (fun r ->
            let p, c = luts r in
            100.0 *. float_of_int (p - c) /. float_of_int c) );
      ( "table3.clk_gap_pct",
        max_over (fun r ->
            let p, c = clk r in
            100.0 *. Float.abs (p -. c) /. c) );
    ]

let layer_metrics _profile ~wall:_ results =
  let r = List.hd results in
  let nodes f =
    List.fold_left (fun n o -> match o with Some o -> n + f o.nodes | None -> n) 0 r.outs
  in
  [
    ("netlist.nodes.full", float_of_int (nodes fst));
    ("netlist.nodes.optimized", float_of_int (nodes snd));
    ("vhdl_lint.failed_configs", float_of_int (lint_failures r));
  ]
  @ table3_metrics ()

(* Lint failures are a finding about the generator, reported as a
   count on every run (the result's notes, and vhdl_lint.failed_configs
   when traced), not as failed operations: the benchmark's workloads
   must be ones on which no operation fails.  The checks hold the
   outputs to repeat exactly and the unpruned configs to lint clean. *)
let checks ~untraced ~traced =
  let all = untraced @ traced in
  let key r = (List.map (Option.map (fun o -> (o.digest, o.lint_ok))) r.outs, r.sweep) in
  [
    ("generate.deterministic", Workload.all_equal (List.map key all));
    ( "generate.unpruned_lint_clean",
      List.for_all
        (fun r ->
          List.for_all
            (function Some o -> (not o.full_ops) || o.lint_ok | None -> false)
            r.outs)
        all );
    ("generate.sweep_measured", List.for_all (fun r -> r.unmeasurable = 0) all);
  ]

let workload (o : Workload.opts) =
  let configs = prepare o in
  {
    Workload.name = "generate";
    inputs = "generate " ^ String.concat ";" (List.map Config.describe configs);
    iteration = iteration configs;
    traced = traced configs;
    layer_of = Some layer_of;
    layer_metrics;
    checks;
    notes =
      (function
        | r :: _ -> [ ("vhdl_lint_failed_configs", Hwpat_serve.Json.Int (lint_failures r)) ]
        | [] -> []);
  }
