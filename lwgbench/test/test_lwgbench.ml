(* The tracing tap must not perturb the simulation: at one seed, the
   traced and untraced runs of the steady workload (on a shortened
   window) deliver the same messages, send the same wire messages and
   see the same virtual-time latencies. *)

module W = Plwg_lwgbench.Workload

let short = { W.steady with W.shape = W.Steady { window = Plwg_sim.Time.sec 2; clusters_per_s = 1. } }

let tap_does_not_perturb () =
  let plain = W.run_size short ~seed:3 ~size:1 ~traced:false in
  let traced = W.run_size short ~seed:3 ~size:1 ~traced:true in
  Alcotest.(check bool) "untraced outputs pass the checks" true plain.W.correct;
  Alcotest.(check bool) "traced outputs pass the checks" true traced.W.correct;
  Alcotest.(check string) "same virtual-time outcome" plain.W.virtual_digest traced.W.virtual_digest;
  let metric name = List.find_map (fun (n, v, _) -> if String.equal n name then Some v else None) traced.W.metrics in
  (match metric "tap.accounting_gap_us" with
  | Some gap -> Alcotest.(check bool) "spans account for their time" true (Float.abs gap < 1.)
  | None -> Alcotest.fail "tap.accounting_gap_us missing");
  match metric "other.msgs" with
  | Some n -> Alcotest.(check (float 0.)) "every message is classified" 0. n
  | None -> Alcotest.fail "other.msgs missing"

let () = Alcotest.run "lwgbench" [ ("tap", [ Alcotest.test_case "traced = untraced in virtual time" `Quick tap_does_not_perturb ]) ]
