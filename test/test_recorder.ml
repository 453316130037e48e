(* Self-tests for the virtual-synchrony invariant checkers: feed
   synthetic traces with known defects and assert each checker flags
   them (a checker that never fires proves nothing). *)

open Plwg_sim
open Plwg_vsync.Types
module Hwg = Plwg_vsync.Hwg
module Recorder = Plwg_vsync.Recorder

let group = { Gid.seq = 1; origin = 0 }
let vid coord seq = { View_id.coord; seq }

let view ?(preds = []) ~coord ~seq members = View.make ~id:(vid coord seq) ~group ~members ~preds

let installed node v = Hwg.Installed { node; view = v }

let delivered node view_id origin local_id = Hwg.Delivered { node; group; view_id; origin; local_id }

let record_timed trace =
  let recorder = Recorder.create () in
  List.iter (fun (time, event) -> Recorder.hook recorder time event) trace;
  recorder

let record events = record_timed (List.mapi (fun i event -> (Time.ms i, event)) events)

let test_clean_trace_passes () =
  let v1 = view ~coord:0 ~seq:1 [ 0; 1 ] in
  let v2 = view ~preds:[ v1.View.id ] ~coord:0 ~seq:2 [ 0; 1; 2 ] in
  let trace =
    [
      installed 0 v1;
      installed 1 v1;
      delivered 0 v1.View.id 1 0;
      delivered 1 v1.View.id 1 0;
      installed 0 v2;
      installed 1 v2;
      installed 2 v2;
    ]
  in
  Alcotest.(check (list string)) "clean" [] (Recorder.check_all (record trace))

let test_detects_self_exclusion () =
  let v = view ~coord:0 ~seq:1 [ 0; 1 ] in
  let violations = Recorder.check_self_inclusion (record [ installed 5 v ]) in
  Alcotest.(check bool) "caught" true (violations <> [])

let test_detects_view_disagreement () =
  let va = view ~coord:0 ~seq:1 [ 0; 1 ] in
  let vb = view ~coord:0 ~seq:1 [ 0; 1; 2 ] (* same id, different members *) in
  let violations = Recorder.check_view_agreement (record [ installed 0 va; installed 1 vb ]) in
  Alcotest.(check bool) "caught" true (violations <> [])

let test_detects_non_monotone_installs () =
  let v2 = view ~coord:0 ~seq:2 [ 0 ] in
  let v1 = view ~coord:0 ~seq:1 [ 0 ] in
  let violations = Recorder.check_local_monotonicity (record [ installed 0 v2; installed 0 v1 ]) in
  Alcotest.(check bool) "caught" true (violations <> [])

let test_detects_duplicate_install () =
  let v = view ~coord:0 ~seq:1 [ 0 ] in
  let violations = Recorder.check_view_id_unique_per_change (record [ installed 0 v; installed 0 v ]) in
  Alcotest.(check bool) "caught" true (violations <> [])

let test_detects_duplicate_delivery () =
  let v = view ~coord:0 ~seq:1 [ 0; 1 ] in
  let trace = [ installed 0 v; delivered 0 v.View.id 1 0; delivered 0 v.View.id 1 0 ] in
  let violations = Recorder.check_no_duplicate_delivery (record trace) in
  Alcotest.(check bool) "caught" true (violations <> [])

let test_detects_fifo_violation () =
  let v = view ~coord:0 ~seq:1 [ 0; 1 ] in
  let trace = [ installed 0 v; delivered 0 v.View.id 1 5; delivered 0 v.View.id 1 3 ] in
  let violations = Recorder.check_fifo (record trace) in
  Alcotest.(check bool) "caught" true (violations <> [])

let test_detects_vs_violation () =
  (* nodes 0 and 1 both go v1 -> v2, but node 1 delivers an extra
     message in v1: the defining virtual-synchrony violation *)
  let v1 = view ~coord:0 ~seq:1 [ 0; 1 ] in
  let v2 = view ~preds:[ v1.View.id ] ~coord:0 ~seq:2 [ 0; 1 ] in
  let trace =
    [
      installed 0 v1;
      installed 1 v1;
      delivered 0 v1.View.id 1 0;
      delivered 1 v1.View.id 1 0;
      delivered 1 v1.View.id 1 1;
      installed 0 v2;
      installed 1 v2;
    ]
  in
  let violations = Recorder.check_virtual_synchrony (record trace) in
  Alcotest.(check bool) "caught" true (violations <> [])

let test_vs_allows_divergent_successors () =
  (* partitionable VS: nodes that install DIFFERENT successor views may
     deliver different sets — must NOT be flagged *)
  let v1 = view ~coord:0 ~seq:1 [ 0; 1 ] in
  let v2a = view ~preds:[ v1.View.id ] ~coord:0 ~seq:2 [ 0 ] in
  let v2b = view ~preds:[ v1.View.id ] ~coord:1 ~seq:2 [ 1 ] in
  let trace =
    [
      installed 0 v1;
      installed 1 v1;
      delivered 0 v1.View.id 1 0;
      (* node 1 delivered nothing before its own successor *)
      installed 0 v2a;
      installed 1 v2b;
    ]
  in
  Alcotest.(check (list string)) "no false positive" [] (Recorder.check_virtual_synchrony (record trace))

let test_detects_total_order_violation () =
  let v = view ~coord:0 ~seq:1 [ 0; 1 ] in
  let trace =
    [
      installed 0 v;
      installed 1 v;
      delivered 0 v.View.id 0 0;
      delivered 0 v.View.id 1 0;
      delivered 1 v.View.id 1 0;
      delivered 1 v.View.id 0 0;
    ]
  in
  let violations = Recorder.check_total_order (record trace) ~group in
  Alcotest.(check bool) "caught" true (violations <> [])

let test_total_order_prefixes_ok () =
  let v = view ~coord:0 ~seq:1 [ 0; 1 ] in
  let trace =
    [
      installed 0 v;
      installed 1 v;
      delivered 0 v.View.id 0 0;
      delivered 0 v.View.id 1 0;
      delivered 1 v.View.id 0 0 (* node 1 is simply behind: a prefix *);
    ]
  in
  Alcotest.(check (list string)) "prefix allowed" [] (Recorder.check_total_order (record trace) ~group)

let test_installs_of () =
  let v1 = view ~coord:0 ~seq:1 [ 0 ] in
  let v2 = view ~preds:[ v1.View.id ] ~coord:0 ~seq:2 [ 0 ] in
  let recorder = record [ installed 0 v1; installed 0 v2 ] in
  Alcotest.(check int) "two installs" 2 (List.length (Recorder.installs_of recorder ~node:0 ~group))

(* A seeded random interleaving of all three event kinds, with node,
   group and view ids at the 16-bit limits of [Gid.code]/[View_id.code]
   and times up to [max_int], the largest a packed row holds.  Few
   distinct ids, so duplicates, FIFO breaks, disagreeing views and
   virtual-synchrony splits all occur. *)
let random_trace ~seed n =
  let rng = Plwg_util.Rng.create ~seed in
  let pick a = a.(Plwg_util.Rng.int rng (Array.length a)) in
  let nodes = [| 0; 1; 2; 0xffff |] in
  let groups = [| group; { Gid.seq = 3; origin = 0xffff }; { Gid.seq = (1 lsl 40) + 5; origin = 0xffff } |] in
  let vids = [| vid 0 1; vid 0 2; vid 0xffff 2; vid 0xffff 3; vid 1 ((1 lsl 40) + 1) |] in
  let trace = ref [] in
  for _ = 1 to n do
    let time = if Plwg_util.Rng.int rng 16 = 0 then max_int else Plwg_util.Rng.int rng 1_000_000_000 in
    let node = pick nodes in
    let event =
      match Plwg_util.Rng.int rng 10 with
      | 0 | 1 ->
          let members = List.filter (fun _ -> Plwg_util.Rng.int rng 4 > 0) (Array.to_list nodes) in
          Hwg.Installed { node; view = View.make ~id:(pick vids) ~group:(pick groups) ~members ~preds:[] }
      | 2 -> Hwg.Left { node; group = pick groups }
      | _ ->
          let local_id = if Plwg_util.Rng.int rng 64 = 0 then max_int else Plwg_util.Rng.int rng 6 in
          Hwg.Delivered { node; group = pick groups; view_id = pick vids; origin = pick nodes; local_id }
    in
    trace := (time, event) :: !trace
  done;
  List.rev !trace

let test_round_trip () =
  (* 10 000 events cross the 4096-record chunk boundary of both the
     delivery rows and the kind bytes *)
  List.iter
    (fun seed ->
      let trace = random_trace ~seed 10_000 in
      Alcotest.(check bool) (Printf.sprintf "seed %d: events = hooked" seed) true (Recorder.events (record_timed trace) = trace))
    [ 1; 2; 3 ];
  Alcotest.(check bool) "empty" true (Recorder.events (Recorder.create ()) = [])

(* Each check's findings on a recorded scenario, pinned as a count and a
   digest of the newline-joined list that the earlier list-backed
   recorder produced, so the row storage cannot reorder, drop or reword
   a finding. *)
let test_findings_unchanged () =
  let r = record_timed (random_trace ~seed:7 600) in
  let pinned name findings ~count ~digest =
    Alcotest.(check int) (name ^ " count") count (List.length findings);
    Alcotest.(check string) (name ^ " digest") digest (Digest.to_hex (Digest.string (String.concat "\n" findings)))
  in
  pinned "self inclusion" (Recorder.check_self_inclusion r) ~count:38 ~digest:"99b1010c92f795f92f73286dc0483895";
  pinned "view agreement" (Recorder.check_view_agreement r) ~count:103 ~digest:"989ca836c0d8da0ecc12f544c7cbfa9f";
  pinned "local monotonicity" (Recorder.check_local_monotonicity r) ~count:51
    ~digest:"a10a4f1811f19a34269d45c2fe536ed2";
  pinned "unique view ids" (Recorder.check_view_id_unique_per_change r) ~count:35
    ~digest:"8aa3531827096f9dadc1f484a4506889";
  pinned "no duplicate delivery" (Recorder.check_no_duplicate_delivery r) ~count:199
    ~digest:"d387bbd0265487228ccccdd5ae645c0b";
  pinned "fifo" (Recorder.check_fifo r) ~count:227 ~digest:"3db18b64a143bb34051a215b47226aee";
  pinned "virtual synchrony" (Recorder.check_virtual_synchrony r) ~count:26
    ~digest:"5ed1598f9d0cc9f29e4ed3d87b9063fa";
  pinned "all" (Recorder.check_all r) ~count:679 ~digest:"888a849fa4a37789dfda2e81cce4d58f";
  pinned "total order" (Recorder.check_total_order r ~group) ~count:15 ~digest:"50c8afff81952e0af021b024a2d72693"

let suite =
  [
    Alcotest.test_case "clean trace passes" `Quick test_clean_trace_passes;
    Alcotest.test_case "detects self-exclusion" `Quick test_detects_self_exclusion;
    Alcotest.test_case "detects view disagreement" `Quick test_detects_view_disagreement;
    Alcotest.test_case "detects non-monotone installs" `Quick test_detects_non_monotone_installs;
    Alcotest.test_case "detects duplicate install" `Quick test_detects_duplicate_install;
    Alcotest.test_case "detects duplicate delivery" `Quick test_detects_duplicate_delivery;
    Alcotest.test_case "detects fifo violation" `Quick test_detects_fifo_violation;
    Alcotest.test_case "detects vs violation" `Quick test_detects_vs_violation;
    Alcotest.test_case "vs allows divergent successors" `Quick test_vs_allows_divergent_successors;
    Alcotest.test_case "detects total order violation" `Quick test_detects_total_order_violation;
    Alcotest.test_case "total order prefix ok" `Quick test_total_order_prefixes_ok;
    Alcotest.test_case "installs_of" `Quick test_installs_of;
    Alcotest.test_case "round trip at the row limits" `Quick test_round_trip;
    Alcotest.test_case "findings unchanged" `Quick test_findings_unchanged;
  ]
