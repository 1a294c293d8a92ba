(* The formal verification layer, end to end:
   - the CDCL solver on hand-built CNF,
   - SAT equivalence of optimised and pruned variants (paper designs,
     random netlists, container elaborations),
   - counterexamples from deliberately mutated circuits, replayed
     through both simulation engines,
   - bounded model checking of the protocol-monitor properties,
     including the known violation of a Fault_wrap-broken device. *)

open Hwpat_rtl
open Hwpat_rtl.Signal
open Hwpat_formal
module Sim_util = Hwpat_test_support.Sim_util

(* --- Solver ------------------------------------------------------------- *)

let test_solver_basics () =
  let s = Solver.create () in
  let a = Solver.new_var s and b = Solver.new_var s in
  Solver.add_clause s [ a; b ];
  Solver.add_clause s [ -a; b ];
  (match Solver.solve s with
  | Solver.Sat -> Alcotest.(check bool) "b is true" true (Solver.value s b)
  | Solver.Unsat -> Alcotest.fail "satisfiable instance reported unsat"
  | Solver.Unknown -> Alcotest.fail "unknown without a budget");
  Solver.add_clause s [ -b ];
  match Solver.solve s with
  | Solver.Unsat -> ()
  | Solver.Sat -> Alcotest.fail "unsat instance reported sat"
  | Solver.Unknown -> Alcotest.fail "unknown without a budget"

let test_solver_assumptions () =
  let s = Solver.create () in
  let a = Solver.new_var s and b = Solver.new_var s in
  Solver.add_clause s [ -a; b ];
  (match Solver.solve s ~assumptions:[ a; -b ] with
  | Solver.Unsat -> ()
  | Solver.Sat -> Alcotest.fail "a & ~b should contradict a -> b"
  | Solver.Unknown -> Alcotest.fail "unknown without a budget");
  (* The same solver must stay usable after an assumption failure. *)
  match Solver.solve s ~assumptions:[ a ] with
  | Solver.Sat -> Alcotest.(check bool) "implied b" true (Solver.value s b)
  | Solver.Unsat -> Alcotest.fail "a alone is consistent with a -> b"
  | Solver.Unknown -> Alcotest.fail "unknown without a budget"

(* A pigeonhole-flavoured stress: 4 pigeons, 3 holes — unsat, and
   forces real conflict analysis rather than pure propagation. *)
let test_solver_pigeonhole () =
  let s = Solver.create () in
  let v = Array.init 4 (fun _ -> Array.init 3 (fun _ -> Solver.new_var s)) in
  for p = 0 to 3 do
    Solver.add_clause s (Array.to_list v.(p))
  done;
  for h = 0 to 2 do
    for p1 = 0 to 3 do
      for p2 = p1 + 1 to 3 do
        Solver.add_clause s [ -v.(p1).(h); -v.(p2).(h) ]
      done
    done
  done;
  match Solver.solve s with
  | Solver.Unsat -> ()
  | Solver.Sat -> Alcotest.fail "pigeonhole 4-into-3 reported sat"
  | Solver.Unknown -> Alcotest.fail "unknown without a budget"

(* --- Budgets and interrupts ---------------------------------------------- *)

let pigeonhole_solver ~pigeons ~holes =
  let s = Solver.create () in
  let v =
    Array.init pigeons (fun _ -> Array.init holes (fun _ -> Solver.new_var s))
  in
  for p = 0 to pigeons - 1 do
    Solver.add_clause s (Array.to_list v.(p))
  done;
  for h = 0 to holes - 1 do
    for p1 = 0 to pigeons - 1 do
      for p2 = p1 + 1 to pigeons - 1 do
        Solver.add_clause s [ -v.(p1).(h); -v.(p2).(h) ]
      done
    done
  done;
  s

(* A conflict budget must trip at the same solver-operation count in
   every run — the caps count work, not wall clock — and the tripped
   solver must stay usable. *)
let test_solver_budget_deterministic () =
  let budget = { Solver.max_conflicts = 5; max_propagations = 0 } in
  let one () =
    let s = pigeonhole_solver ~pigeons:6 ~holes:5 in
    (match Solver.solve ~budget s with
    | Solver.Unknown -> ()
    | Solver.Sat | Solver.Unsat ->
      Alcotest.fail "6-into-5 pigeonhole decided within 5 conflicts");
    let st = Solver.stats s in
    Alcotest.(check int) "one unknown counted" 1 st.Solver.unknowns;
    (* The tripped solver finishes the job when given free rein. *)
    (match Solver.solve s with
    | Solver.Unsat -> ()
    | Solver.Sat -> Alcotest.fail "pigeonhole reported sat after a trip"
    | Solver.Unknown -> Alcotest.fail "unknown without a budget");
    (st.Solver.conflicts, st.Solver.propagations, st.Solver.decisions)
  in
  let a = one () and b = one () in
  Alcotest.(check (triple int int int)) "budget trip is replay-stable" a b

let test_solver_propagation_budget () =
  let s = pigeonhole_solver ~pigeons:6 ~holes:5 in
  match
    Solver.solve ~budget:{ Solver.max_conflicts = 0; max_propagations = 1 } s
  with
  | Solver.Unknown -> ()
  | Solver.Sat | Solver.Unsat ->
    Alcotest.fail "decided within a single propagation"

exception Poked

let test_solver_interrupt () =
  let s = pigeonhole_solver ~pigeons:6 ~holes:5 in
  let calls = ref 0 in
  (match
     Solver.solve
       ~interrupt:(fun () ->
         incr calls;
         if !calls > 10 then raise Poked)
       s
   with
  | exception Poked -> ()
  | Solver.Sat | Solver.Unsat | Solver.Unknown ->
    Alcotest.fail "interrupt did not fire within 10 iterations");
  (* An interrupted solver is not poisoned. *)
  match Solver.solve s with
  | Solver.Unsat -> ()
  | Solver.Sat -> Alcotest.fail "pigeonhole reported sat after interrupt"
  | Solver.Unknown -> Alcotest.fail "unknown without a budget"

(* --- Push/pop scopes ------------------------------------------------------ *)

let test_solver_push_pop () =
  let s = Solver.create () in
  let a = Solver.new_var s and b = Solver.new_var s in
  Solver.add_clause s [ a; b ];
  Alcotest.(check int) "no scope open" 0 (Solver.scope_depth s);
  Solver.push s;
  Solver.add_clause s [ -a ];
  Solver.push s;
  Solver.add_clause s [ -b ];
  Alcotest.(check int) "two scopes open" 2 (Solver.scope_depth s);
  (match Solver.solve s with
  | Solver.Unsat -> ()
  | _ -> Alcotest.fail "(a|b) & ~a & ~b should be unsat");
  (* Popping the inner scope retires ~b only: b must come back. *)
  Solver.pop s;
  (match Solver.solve s with
  | Solver.Sat ->
    Alcotest.(check bool) "b forced by the outer scope" true (Solver.value s b)
  | _ -> Alcotest.fail "sat after popping the inner scope");
  Solver.pop s;
  Alcotest.(check int) "all scopes closed" 0 (Solver.scope_depth s);
  (* Both scoped clauses gone: a & ~b is compatible with the base. *)
  match Solver.solve s ~assumptions:[ a; -b ] with
  | Solver.Sat -> ()
  | _ -> Alcotest.fail "scoped clauses must not survive their pop"

(* Learned clauses survive a pop (that is the point of scopes): the
   conflicts spent inside a scope make the solve after the pop
   cheaper, never incorrect. *)
let test_solver_scope_keeps_learning () =
  let s = pigeonhole_solver ~pigeons:5 ~holes:4 in
  Solver.push s;
  (match Solver.solve s with
  | Solver.Unsat -> ()
  | _ -> Alcotest.fail "pigeonhole sat inside a scope");
  let inside = (Solver.stats s).Solver.conflicts in
  Solver.pop s;
  (match Solver.solve s with
  | Solver.Unsat -> ()
  | _ -> Alcotest.fail "pigeonhole sat after pop");
  let after = (Solver.stats s).Solver.conflicts in
  Alcotest.(check bool)
    (Printf.sprintf "re-solve reuses learning (%d then %d more)" inside
       (after - inside))
    true
    (after - inside <= inside)

(* The search must replay bit-identically: same instance, same
   operation counts. *)
let test_solver_replay_stable () =
  let one () =
    let s = Solver.create () in
    let v = Array.init 6 (fun _ -> Array.init 5 (fun _ -> Solver.new_var s)) in
    for p = 0 to 5 do
      Solver.add_clause s (Array.to_list v.(p))
    done;
    for h = 0 to 4 do
      for p1 = 0 to 5 do
        for p2 = p1 + 1 to 5 do
          Solver.add_clause s [ -v.(p1).(h); -v.(p2).(h) ]
        done
      done
    done;
    (match Solver.solve s with
    | Solver.Unsat -> ()
    | _ -> Alcotest.fail "pigeonhole 6-into-5 not refuted");
    let st = Solver.stats s in
    (st.Solver.conflicts, st.Solver.propagations, st.Solver.decisions)
  in
  Alcotest.(check (triple int int int))
    "pigeonhole replays identically" (one ()) (one ())

(* --- Optimizer equivalence ----------------------------------------------- *)

let check_proved what = function
  | Equiv.Proved -> ()
  | Equiv.Counterexample cex ->
    Alcotest.failf "%s: behaviour differs:\n%s" what
      (Equiv.counterexample_to_string cex)
  | Equiv.Unknown why -> Alcotest.failf "%s: not decided (%s)" what why

let test_equiv_random_circuits () =
  for seed = 1 to 40 do
    let c, _ = Netgen.build_random_circuit ~seed in
    check_proved
      (Printf.sprintf "seed %d vs optimised" seed)
      (Equiv.check c (Optimize.circuit c))
  done

let paper_designs () =
  [
    ( "saa2vga fifo",
      Hwpat_core.Saa2vga.build ~depth:16 ~substrate:Hwpat_core.Saa2vga.Fifo
        ~style:Hwpat_core.Saa2vga.Pattern () );
    ( "saa2vga sram",
      Hwpat_core.Saa2vga.build ~depth:16 ~substrate:Hwpat_core.Saa2vga.Sram
        ~style:Hwpat_core.Saa2vga.Pattern () );
    ( "blur",
      Hwpat_core.Blur_system.build ~image_width:8 ~max_rows:8
        ~style:Hwpat_core.Blur_system.Pattern () );
  ]

let test_equiv_paper_designs () =
  List.iter
    (fun (what, c) ->
      check_proved (what ^ " vs optimised") (Equiv.check c (Optimize.circuit c)))
    (paper_designs ())

(* The prove gate's deterministic half.  The legacy per-occurrence
   encoder, before structural hashing, spent this many solver
   propagations proving the blur design equal to its optimised form;
   propagation counts replay identically on every machine.  The one
   frame encoder must stay at least 2x under that frozen figure. *)
let blast_blur_propagations = 9_263_306

let test_equiv_blur_propagation_bound () =
  let c =
    Hwpat_core.Blur_system.build ~image_width:8 ~max_rows:8
      ~style:Hwpat_core.Blur_system.Pattern ()
  in
  let m = Hwpat_obs.Metrics.create () in
  check_proved "blur vs optimised" (Equiv.check ~metrics:m c (Optimize.circuit c));
  let props = Hwpat_obs.Metrics.counter_value m "solver.propagations" in
  if props * 2 > blast_blur_propagations then
    Alcotest.failf
      "blur proof spent %d solver propagations; the bound is half of the \
       frozen %d"
      props blast_blur_propagations

let test_optimize_run_verify_hook () =
  let c, _ = Netgen.build_random_circuit ~seed:7 in
  (* The rtl-side hook with the formal checker plugged in. *)
  ignore (Equiv.optimize ~verify:true c)

(* --- Counterexamples from mutated circuits ------------------------------- *)

(* A 4-bit wrapping counter; [broken] injects a stuck-at fault on the
   carry path: when the count reaches 11 the increment is silently
   dropped. The divergence needs 12 enabled cycles to surface, so the
   counterexample exercises the sequential (unrolled) search, not just
   the combinational miter. *)
let counter_circuit ~broken =
  let en = input "en" 1 in
  let count = wire 4 in
  let stuck = count ==: of_int ~width:4 11 in
  let inc =
    if broken then mux2 stuck count (count +: of_int ~width:4 1)
    else count +: of_int ~width:4 1
  in
  count <== reg ~enable:en ~init:(Bits.zero 4) inc;
  Circuit.create_exn
    ~name:(if broken then "counter_broken" else "counter")
    [ ("count", count) ]

let test_mutated_circuit_counterexample () =
  let good = counter_circuit ~broken:false in
  let bad = counter_circuit ~broken:true in
  match Equiv.check good bad with
  | Equiv.Proved -> Alcotest.fail "mutated counter reported equivalent"
  | Equiv.Unknown why -> Alcotest.failf "mutated counter undecided (%s)" why
  | Equiv.Counterexample cex ->
    if List.length cex < 12 then
      Alcotest.failf "counterexample too short (%d cycles) to reach the fault"
        (List.length cex);
    (* Equiv already replayed it internally; replay once more here, by
       hand, and check the divergence is real in Cyclesim. *)
    let final c =
      let sim = Cyclesim.create c in
      List.iter
        (fun assignment ->
          List.iter (fun (n, v) -> Cyclesim.drive sim n v) assignment;
          Cyclesim.cycle sim)
        cex;
      !(Cyclesim.out_port sim "count")
    in
    if Bits.equal (final good) (final bad) then
      Alcotest.fail "counterexample does not diverge in Cyclesim";
    (* And both engines agree on the trace for each circuit alone. *)
    List.iter
      (fun c ->
        match Sim_util.replay_both c cex with
        | None -> ()
        | Some d ->
          Alcotest.failf "engines disagree replaying the cex at cycle %d"
            d.Sim_util.at)
      [ good; bad ]

(* A combinational mutation takes the single-frame miter path. *)
let test_combinational_counterexample () =
  let a = input "a" 4 and b = input "b" 4 in
  let good = Circuit.create_exn ~name:"add" [ ("s", a +: b) ] in
  let a' = input "a" 4 and b' = input "b" 4 in
  let bad = Circuit.create_exn ~name:"add_bad" [ ("s", a' |: b') ] in
  match Equiv.check good bad with
  | Equiv.Counterexample [ assignment ] ->
    (* one cycle suffices, and the assignment names the inputs *)
    Alcotest.(check bool) "names a" true (List.mem_assoc "a" assignment);
    Alcotest.(check bool) "names b" true (List.mem_assoc "b" assignment)
  | Equiv.Counterexample cex ->
    Alcotest.failf "expected a 1-cycle counterexample, got %d cycles"
      (List.length cex)
  | Equiv.Proved -> Alcotest.fail "add vs or reported equivalent"
  | Equiv.Unknown why -> Alcotest.failf "add vs or undecided (%s)" why

(* Port-matching conventions. *)
let test_port_conventions () =
  (* Exclusive inputs are tied to zero: x + y vs x are equivalent
     exactly when y is constrained to 0. *)
  let x = input "x" 4 and y = input "y" 4 in
  let wide = Circuit.create_exn ~name:"wide" [ ("o", x +: y) ] in
  let narrow = Circuit.create_exn ~name:"narrow" [ ("o", input "x" 4) ] in
  check_proved "x + 0 vs x" (Equiv.check wide narrow);
  (* Mismatched widths on a shared port are a caller error. *)
  let w1 = Circuit.create_exn ~name:"w1" [ ("o", uresize (input "p" 2) 4) ] in
  let w2 = Circuit.create_exn ~name:"w2" [ ("o", uresize (input "p" 3) 4) ] in
  (match Equiv.check w1 w2 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "shared port with differing widths must be rejected");
  (* No shared outputs is vacuous and must be rejected, too. *)
  let o1 = Circuit.create_exn ~name:"o1" [ ("a", input "i" 1) ] in
  let o2 = Circuit.create_exn ~name:"o2" [ ("b", input "i" 1) ] in
  match Equiv.check o1 o2 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "disjoint output names must be rejected"

(* --- Structural hashing --------------------------------------------------- *)

(* Solve with every leaf pinned to a concrete value: the model then
   fixes every literal built over those leaves. *)
let pin_leaves st pins =
  let assumptions =
    List.concat_map
      (fun (lits, v) ->
        List.init (Array.length lits) (fun i ->
            let l = Strash.to_solver_lit st lits.(i) in
            if Bits.bit v i then l else -l))
      pins
  in
  match Solver.solve ~assumptions (Strash.solver st) with
  | Solver.Sat -> ()
  | Solver.Unsat | Solver.Unknown -> Alcotest.fail "pinned leaves not satisfiable"

(* One symbolic frame over fresh input and state leaves, evaluated in
   lockstep with Cyclesim: every cycle pins the leaves to the stimulus
   and to the simulator's pre-edge state, then diffs every output
   against the simulator's settled value and every next-state vector
   against its post-edge state.  Cyclesim is the independent oracle of
   the prover's one frame encoder — its rewrite rules, its CNF emission
   and its memory/register semantics alike. *)
let frame_lockstep what c ~cycles ~seed =
  let st = Strash.create (Solver.create ()) in
  let elts = Strash.state_elements c in
  let inputs =
    List.map
      (fun (n, s) -> (n, Strash.fresh_vector st (width s)))
      (Circuit.inputs c)
  in
  let state =
    Array.map (fun e -> Strash.fresh_vector st (Strash.elt_width e)) elts
  in
  let f =
    Strash.frame st c
      ~inputs:(fun n -> List.assoc n inputs)
      ~state:(fun i -> state.(i))
  in
  (* Emit every probed cone, so the values below come from the CNF. *)
  let emit = Array.iter (fun l -> ignore (Strash.to_solver_lit st l)) in
  List.iter (fun (_, v) -> emit v) f.Strash.outputs;
  Array.iter emit f.Strash.next;
  let sim = Cyclesim.create c in
  let sim_state e =
    match e with
    | Strash.Reg_state s | Strash.Read_state s -> Cyclesim.peek_state sim s
    | Strash.Mem_word (m, i) -> (Cyclesim.memory_contents sim m).(i)
  in
  let rng = Random.State.make [| 0x5ee0 + seed |] in
  for cycle = 1 to cycles do
    let stimulus =
      List.map
        (fun (n, lits) ->
          let w = Array.length lits in
          (n, lits, Bits.of_int ~width:w (Random.State.int rng (1 lsl min w 30))))
        inputs
    in
    pin_leaves st
      (List.map (fun (_, lits, v) -> (lits, v)) stimulus
      @ Array.to_list (Array.mapi (fun i e -> (state.(i), sim_state e)) elts));
    List.iter (fun (n, _, v) -> Cyclesim.drive sim n v) stimulus;
    Cyclesim.cycle sim;
    let expect kind got want =
      if not (Bits.equal got want) then
        Alcotest.failf "%s: %s diverges at cycle %d (frame %s, Cyclesim %s)"
          what kind cycle (Bits.to_string got) (Bits.to_string want)
    in
    List.iter
      (fun (n, v) ->
        expect ("output " ^ n) (Strash.model_bits st v) !(Cyclesim.out_port sim n))
      f.Strash.outputs;
    Array.iteri
      (fun i e ->
        expect (Strash.elt_label e)
          (Strash.model_bits st f.Strash.next.(i))
          (sim_state e))
      elts
  done

let test_strash_frame_lockstep () =
  List.iter
    (fun (what, c) -> frame_lockstep what c ~cycles:200 ~seed:1)
    (paper_designs ());
  for seed = 1 to 40 do
    let c, _ = Netgen.build_random_circuit ~seed in
    frame_lockstep (Printf.sprintf "netgen seed %d" seed) c ~cycles:64 ~seed
  done

(* The gate constructors against their truth tables, exhaustively over
   a pool of small functions of three leaves: the leaves, their
   complements, both constants, and one level of [sand]/[sxor]/[smux]
   over those.  Every [sand]/[sor]/[sxor]/[smux] application over the
   pool is evaluated under all eight leaf assignments.  A truth table is
   an 8-bit mask whose bit [k] is the value under assignment [k] (leaf
   [i] is bit [i] of [k]).  Each rewrite rule fires on one operand
   pattern, which the lockstep suite above may never produce; this
   test produces them all. *)
let test_strash_gate_algebra () =
  let st = Strash.create (Solver.create ()) in
  let leaves = Array.init 3 (fun _ -> Strash.fresh st) in
  let leaf_tt = [| 0xaa; 0xcc; 0xf0 |] in
  let tnot a = lnot a land 0xff in
  let tmux c d1 d0 = (c land d1) lor (tnot c land d0) in
  let base =
    List.concat
      (List.init 3 (fun i ->
           [ (leaves.(i), leaf_tt.(i)); (Strash.snot leaves.(i), tnot leaf_tt.(i)) ]))
    @ [ (Strash.lit_true, 0xff); (Strash.lit_false, 0) ]
  in
  let level =
    List.concat_map
      (fun (a, ta) ->
        List.concat_map
          (fun (b, tb) ->
            (Strash.sand st a b, ta land tb)
            :: (Strash.sxor st a b, ta lxor tb)
            :: List.map (fun (c, tc) -> (Strash.smux st a b c, tmux ta tb tc)) base)
          base)
      base
  in
  let pool = Array.of_list (List.sort_uniq compare (base @ level)) in
  let apply f =
    Array.iter
      (fun (a, ta) ->
        Array.iter
          (fun (b, tb) ->
            f (Strash.sand st a b) (ta land tb);
            f (Strash.sor st a b) (ta lor tb);
            f (Strash.sxor st a b) (ta lxor tb);
            Array.iter (fun (c, tc) -> f (Strash.smux st a b c) (tmux ta tb tc)) pool)
          pool)
      pool
  in
  (* Pass 1 builds every application; then the distinct results are
     evaluated under each assignment. *)
  let actual = Hashtbl.create 4096 in
  Array.iter (fun (l, _) -> Hashtbl.replace actual l 0) pool;
  apply (fun l _ -> Hashtbl.replace actual l 0);
  let lits = Hashtbl.fold (fun l _ acc -> l :: acc) actual [] in
  for k = 0 to 7 do
    pin_leaves st
      (List.init 3 (fun i -> ([| leaves.(i) |], Bits.of_int ~width:1 ((k lsr i) land 1))));
    List.iter
      (fun l ->
        if Strash.value st l then
          Hashtbl.replace actual l (Hashtbl.find actual l lor (1 lsl k)))
      lits
  done;
  let check what l want =
    let got = Hashtbl.find actual l in
    if got <> want then
      Alcotest.failf "%s: literal %d has truth table %02x, expected %02x" what l got want
  in
  Array.iter (fun (l, t) -> check "pool" l t) pool;
  (* Pass 2 rebuilds every application: hash-consing must hand back the
     existing nodes, so no node is created, and each result must match
     the truth table of its operands. *)
  let nodes = Strash.num_nodes st in
  apply (fun l t ->
      match Hashtbl.find_opt actual l with
      | Some _ -> check "application" l t
      | None -> Alcotest.failf "rebuilt application returned new literal %d" l);
  Alcotest.(check int) "rebuilding creates no node" nodes (Strash.num_nodes st);
  (* Canonical operand order: commuted operands share one node. *)
  Array.iter
    (fun (a, _) ->
      Array.iter
        (fun (b, _) ->
          Alcotest.(check int) "sand commutes" (Strash.sand st a b) (Strash.sand st b a);
          Alcotest.(check int) "sxor commutes" (Strash.sxor st a b) (Strash.sxor st b a))
        pool)
    pool;
  Alcotest.(check int) "commuting creates no node" nodes (Strash.num_nodes st)

(* --- Stats merge exactly once --------------------------------------------- *)

(* Satellite regression: a check abandoned by its interrupt hook (the
   supervision watchdog about to retry) must merge nothing — the retry
   merges its own complete run, and the pair together must equal a
   single uninterrupted run, not double it. *)
let test_stats_merge_once_on_retry () =
  let good = counter_circuit ~broken:false in
  let bad = counter_circuit ~broken:true in
  let expect_cex what = function
    | Equiv.Counterexample _ -> ()
    | Equiv.Proved -> Alcotest.failf "%s: reported equivalent" what
    | Equiv.Unknown why -> Alcotest.failf "%s: undecided (%s)" what why
  in
  let oracle = Hwpat_obs.Metrics.create () in
  expect_cex "oracle" (Equiv.check ~metrics:oracle good bad);
  let m = Hwpat_obs.Metrics.create () in
  let fired = ref false in
  (* Attempt 1: aborted from inside SAT search, as a watchdog would. *)
  (try
     ignore
       (Equiv.check ~metrics:m
          ~interrupt:(fun () ->
            fired := true;
            raise Poked)
          good bad)
   with Poked -> ());
  Alcotest.(check bool) "interrupt hook fired" true !fired;
  Alcotest.(check int) "aborted attempt merged nothing" 0
    (Hwpat_obs.Metrics.counter_value m "solver.decisions");
  (* Attempt 2: the retry, run to completion. *)
  expect_cex "retry" (Equiv.check ~metrics:m good bad);
  List.iter
    (fun c ->
      let key = "solver." ^ c in
      Alcotest.(check int)
        (key ^ " equals a single uninterrupted run")
        (Hwpat_obs.Metrics.counter_value oracle key)
        (Hwpat_obs.Metrics.counter_value m key))
    [ "decisions"; "conflicts"; "propagations"; "learned"; "sat"; "unsat" ]

(* --- Pruned containers --------------------------------------------------- *)

let test_pruned_container_equivalence () =
  let open Hwpat_meta in
  let pairs =
    [
      Config.make ~instance_name:"tq" ~kind:Metamodel.Queue
        ~target:Metamodel.Fifo_core ~elem_width:4 ~depth:8
        ~ops_used:[ Metamodel.Write ] ();
      Config.make ~instance_name:"ts" ~kind:Metamodel.Stack
        ~target:Metamodel.Block_ram ~elem_width:4 ~depth:8
        ~ops_used:[ Metamodel.Read ] ();
      Config.make ~instance_name:"tv" ~kind:Metamodel.Vector
        ~target:Metamodel.Ext_sram ~elem_width:4 ~depth:4 ~wait_states:1
        ~ops_used:[ Metamodel.Read; Metamodel.Index ] ();
      Config.make ~instance_name:"trb" ~kind:Metamodel.Read_buffer
        ~target:Metamodel.Block_ram ~elem_width:4 ~depth:8
        ~ops_used:[ Metamodel.Inc ] ();
      Config.make ~instance_name:"twb" ~kind:Metamodel.Write_buffer
        ~target:Metamodel.Fifo_core ~elem_width:4 ~depth:8
        ~ops_used:[ Metamodel.Inc ] ();
      Config.make ~instance_name:"ta" ~kind:Metamodel.Assoc_array
        ~target:Metamodel.Block_ram ~elem_width:4 ~depth:8
        ~ops_used:[ Metamodel.Read; Metamodel.Index ] ();
    ]
  in
  List.iter
    (fun cfg ->
      let full = Hwpat_containers.Elaborate.full cfg in
      let pruned = Hwpat_containers.Elaborate.pruned cfg in
      (* Pruning must actually remove the unused request ports... *)
      if
        List.length (Circuit.inputs pruned) >= List.length (Circuit.inputs full)
      then
        Alcotest.failf "%s: pruning removed no ports" (Config.entity_name cfg);
      (* ...and stay equivalent on the retained interface. *)
      check_proved (Config.entity_name cfg) (Equiv.check full pruned))
    pairs

(* --- Bounded model checking ---------------------------------------------- *)

let test_bmc_paper_designs_hold () =
  List.iter
    (fun (what, c) ->
      Alcotest.(check bool)
        (what ^ " has monitored pairs")
        true
        (Bmc.derive_properties c <> []);
      match Bmc.check_auto ~depth:20 c with
      | Bmc.Holds d -> Alcotest.(check int) (what ^ " depth") 20 d
      | Bmc.Violation v ->
        Alcotest.failf "%s: %s violated at cycle %d" what v.Bmc.property
          v.Bmc.at
      | Bmc.Unknown why -> Alcotest.failf "%s: unknown (%s)" what why)
    (paper_designs ())

(* Starved of propagations, both checkers must give an honest Unknown —
   never hang, never claim a verdict. *)
let test_budget_unknown_verdicts () =
  let tiny = { Solver.max_conflicts = 0; max_propagations = 1 } in
  (match
     Bmc.check_auto ~budget:tiny ~depth:20
       (Hwpat_core.Saa2vga.build ~depth:16
          ~substrate:Hwpat_core.Saa2vga.Fifo
          ~style:Hwpat_core.Saa2vga.Pattern ())
   with
  | Bmc.Unknown why ->
    Alcotest.(check bool)
      "bmc reason mentions the budget" true
      (String.length why >= 6 && String.sub why 0 6 = "solver")
  | Bmc.Holds _ | Bmc.Violation _ ->
    Alcotest.fail "bmc decided within one propagation");
  let good = counter_circuit ~broken:false in
  let bad = counter_circuit ~broken:true in
  match Equiv.check ~budget:tiny good bad with
  | Equiv.Unknown why ->
    Alcotest.(check bool)
      "equiv reason mentions the budget" true
      (String.length why >= 6 && String.sub why 0 6 = "solver")
  | Equiv.Proved | Equiv.Counterexample _ ->
    Alcotest.fail "equiv decided within one propagation"

(* The known-broken device: an external SRAM behind a fault wrapper
   that can suppress acknowledges, guarded by a watchdog that forces a
   fake one after the timeout. A client that trusts the watchdog-forced
   acknowledge drops its request while the SRAM is still mid-access, so
   the raw device-level req/ack pair violates the handshake protocol.
   With the fault control tied low the same pair is provably safe. *)
let broken_device_circuit ~faulty =
  let faults =
    if faulty then Hwpat_devices.Fault_wrap.inputs ~width:4 ()
    else Hwpat_devices.Fault_wrap.no_faults ~width:4
  in
  let req = wire 1 in
  let dev =
    Hwpat_devices.Fault_wrap.sram ~name:"dev" ~words:4 ~width:4 ~wait_states:1
      ~faults ~req ~we:gnd ~addr:(zero 2) ~wr_data:(zero 4) ()
  in
  let wd =
    Hwpat_containers.Protect.watchdog ~timeout:6 ~retries:0 ~req
      ~ack:dev.Hwpat_devices.Sram.ack ()
  in
  (* One-shot client: request held from power-on until the (possibly
     watchdog-forced) acknowledge, then dropped for good. *)
  req
  <== reg ~init:(Bits.one 1) (req &: ~:(wd.Hwpat_containers.Protect.wd_ack));
  Circuit.create_exn
    ~name:(if faulty then "dev_broken" else "dev_safe")
    [
      ("busy", dev.Hwpat_devices.Sram.busy);
      ("rd_data", dev.Hwpat_devices.Sram.rd_data);
      ("wd_err", wd.Hwpat_containers.Protect.wd_err);
    ]

let test_bmc_broken_device () =
  (* Fault control tied low: the raw dev_req/dev_ack pair is safe. *)
  (match Bmc.check_auto ~depth:20 (broken_device_circuit ~faulty:false) with
  | Bmc.Holds 20 -> ()
  | Bmc.Holds d -> Alcotest.failf "safe device: expected depth 20, got %d" d
  | Bmc.Violation v ->
    Alcotest.failf "safe device: spurious violation of %s at %d" v.Bmc.property
      v.Bmc.at
  | Bmc.Unknown why -> Alcotest.failf "safe device: unknown (%s)" why);
  (* Fault control free: BMC must find the protocol violation. *)
  match Bmc.check_auto ~depth:20 (broken_device_circuit ~faulty:true) with
  | Bmc.Holds _ ->
    Alcotest.fail "fault-wrapped device: violation not found to depth 20"
  | Bmc.Unknown why ->
    Alcotest.failf "fault-wrapped device: unknown (%s)" why
  | Bmc.Violation v ->
    Alcotest.(check bool)
      "violation names the dev pair" true
      (String.length v.Bmc.property >= 3
      && String.sub v.Bmc.property 0 3 = "dev");
    Alcotest.(check bool) "trace is non-trivial" true (v.Bmc.at > 0)

(* A hand-rolled FIFO-invariant break: an occupancy register that jumps
   from 0 to 2 on the first push. BMC over the derived count/empty
   properties must refute it. *)
let test_bmc_fifo_invariant_break () =
  let push = input "push" 1 in
  let count = wire 3 in
  let bump = mux2 (count ==: zero 3) (of_int ~width:3 2) (one 3) in
  let next = mux2 push (count +: bump) count in
  count <== reg ~init:(Bits.zero 3) next -- "box_count";
  let empty = (count ==: zero 3) -- "box_empty" in
  let c = Circuit.create_exn ~name:"bad_box" [ ("occ", count); ("e", empty) ] in
  match Bmc.check_auto ~depth:10 c with
  | Bmc.Violation v ->
    Alcotest.(check bool)
      "names box pair" true
      (String.length v.Bmc.property >= 3 && String.sub v.Bmc.property 0 3 = "box")
  | Bmc.Holds _ -> Alcotest.fail "off-by-one occupancy not refuted"
  | Bmc.Unknown why -> Alcotest.failf "off-by-one occupancy unknown (%s)" why

let () =
  Alcotest.run "formal"
    [
      ( "solver",
        [
          Alcotest.test_case "basics" `Quick test_solver_basics;
          Alcotest.test_case "assumptions" `Quick test_solver_assumptions;
          Alcotest.test_case "pigeonhole" `Quick test_solver_pigeonhole;
          Alcotest.test_case "budget trips deterministically" `Quick
            test_solver_budget_deterministic;
          Alcotest.test_case "propagation budget" `Quick
            test_solver_propagation_budget;
          Alcotest.test_case "interrupt hook" `Quick test_solver_interrupt;
          Alcotest.test_case "push/pop scopes" `Quick test_solver_push_pop;
          Alcotest.test_case "scopes keep learned clauses" `Quick
            test_solver_scope_keeps_learning;
          Alcotest.test_case "search replays bit-identically" `Quick
            test_solver_replay_stable;
          Alcotest.test_case "stats merge once across a retry" `Quick
            test_stats_merge_once_on_retry;
        ] );
      ( "strash",
        [
          Alcotest.test_case "frame matches Cyclesim (43 circuits)" `Slow
            test_strash_frame_lockstep;
          Alcotest.test_case "gate algebra matches truth tables" `Quick
            test_strash_gate_algebra;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "optimizer on 40 random circuits" `Slow
            test_equiv_random_circuits;
          Alcotest.test_case "optimizer on the paper designs" `Slow
            test_equiv_paper_designs;
          Alcotest.test_case "Optimize.run verify hook" `Quick
            test_optimize_run_verify_hook;
          Alcotest.test_case "mutated counter yields replayable cex" `Quick
            test_mutated_circuit_counterexample;
          Alcotest.test_case "combinational miter cex" `Quick
            test_combinational_counterexample;
          Alcotest.test_case "port-matching conventions" `Quick
            test_port_conventions;
          Alcotest.test_case "pruned containers equal full models" `Slow
            test_pruned_container_equivalence;
          Alcotest.test_case "blur proof under the propagation bound" `Slow
            test_equiv_blur_propagation_bound;
        ] );
      ( "bmc",
        [
          Alcotest.test_case "paper designs hold to depth 20" `Slow
            test_bmc_paper_designs_hold;
          Alcotest.test_case "fault-wrapped device violates handshake" `Quick
            test_bmc_broken_device;
          Alcotest.test_case "off-by-one occupancy refuted" `Quick
            test_bmc_fifo_invariant_break;
          Alcotest.test_case "budget exhaustion reports unknown" `Quick
            test_budget_unknown_verdicts;
        ] );
    ]
