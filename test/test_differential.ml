(* Differential between a sequential (POWERCODE_SEQ=1) and a multi-domain
   fault campaign.  The same fixed-seed campaign must produce (a) a
   byte-identical report and (b) identical telemetry totals for every
   Stable metric — counters are sharded sums, so worker scheduling must
   not leak into them.  Runtime metrics (cache hits, pool task counts,
   idle time) describe how the run executed and legitimately differ
   between the two paths; the stability class on each metric (see
   Telemetry.Registry) is exactly the contract this test enforces. *)

module Metrics = Telemetry.Metrics

let force_sequential b = Unix.putenv "POWERCODE_SEQ" (if b then "1" else "0")

let corpus =
  {
    Fault.Campaign.seed = 11;
    injections = 48;
    ks = [ 4; 5 ];
    benches = List.map (Workloads.by_name Workloads.scaled) [ "tri"; "sor" ];
  }

let stable_counters (f : Metrics.frozen) =
  List.filter_map
    (fun (name, st, v) -> if st = Metrics.Stable then Some (name, v) else None)
    f.Metrics.counters

let stable_histograms (f : Metrics.frozen) =
  List.filter_map
    (fun (name, st, buckets) ->
      if st = Metrics.Stable then Some (name, buckets) else None)
    f.Metrics.histograms

(* one cold campaign under fresh telemetry; returns the JSON report and
   the Stable slice of the frozen record *)
let run_corpus () =
  Metrics.reset ();
  Pipeline.Evaluate.Plan_cache.clear ();
  let report = Fault.Campaign.to_json (Fault.Campaign.run corpus) in
  let frozen = Metrics.freeze () in
  (report, stable_counters frozen, stable_histograms frozen)

let with_telemetry f =
  Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ();
      force_sequential false)
    f

let counters_t = Alcotest.(list (pair string int))
let histograms_t = Alcotest.(list (pair string (list (pair string int))))

let test_images_and_stable_totals_match () =
  with_telemetry @@ fun () ->
  force_sequential true;
  let report_seq, counters_seq, histograms_seq = run_corpus () in
  force_sequential false;
  let report_par, counters_par, histograms_par = run_corpus () in
  Alcotest.(check string) "campaign report" report_seq report_par;
  Alcotest.check counters_t "stable counter totals" counters_seq counters_par;
  Alcotest.check histograms_t "stable histogram totals" histograms_seq
    histograms_par

let test_stable_totals_match_under_sampler () =
  (* acceptance pin for the live sampler: concurrent freezes from the
     sampler domain are non-destructive, so running it throughout must not
     perturb the seq-vs-parallel Stable equality *)
  with_telemetry @@ fun () ->
  let sampled = Atomic.make 0 in
  let sampler =
    Telemetry.Sampler.start ~interval_s:0.002
      ~sink:(fun _ -> Atomic.incr sampled)
      ()
  in
  Fun.protect ~finally:(fun () -> Telemetry.Sampler.stop sampler)
  @@ fun () ->
  force_sequential true;
  let report_seq, counters_seq, histograms_seq = run_corpus () in
  force_sequential false;
  let report_par, counters_par, histograms_par = run_corpus () in
  Alcotest.(check string) "campaign report under sampler" report_seq
    report_par;
  Alcotest.check counters_t "stable counter totals under sampler" counters_seq
    counters_par;
  Alcotest.check histograms_t "stable histogram totals under sampler"
    histograms_seq histograms_par;
  (* the corpus can finish inside the first sampling interval on a fast
     machine; wait (bounded) for one tick so the liveness guard is about
     the sampler running, not about scheduling luck *)
  let deadline = Unix.gettimeofday () +. 2.0 in
  while Atomic.get sampled < 1 && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.002
  done;
  Alcotest.(check bool) "sampler actually sampled" true (Atomic.get sampled >= 1)

let test_stable_totals_are_live () =
  (* guard against the equality above passing vacuously: the corpus must
     actually move the Stable counters *)
  with_telemetry @@ fun () ->
  force_sequential false;
  let _, counters, histograms = run_corpus () in
  let total name = List.assoc name counters in
  Alcotest.(check int) "fault.injections" corpus.Fault.Campaign.injections
    (total "fault.injections");
  Alcotest.(check bool) "the campaign ran on the pool" true
    (Metrics.counter_total Telemetry.Registry.parpool_jobs > 0);
  Alcotest.(check bool) "encode.blocks > 0" true (total "encode.blocks" > 0);
  Alcotest.(check int) "encode.lines" (32 * total "encode.blocks")
    (total "encode.lines");
  Alcotest.(check int) "chain.streams" (total "encode.lines")
    (total "chain.streams");
  Alcotest.(check bool) "chain.code_blocks > 0" true
    (total "chain.code_blocks" > 0);
  let taus = List.assoc "encode.tau_selected" histograms in
  let observed = List.fold_left (fun s (_, n) -> s + n) 0 taus in
  Alcotest.(check int)
    "every (line, code block) selected one tau"
    (total "chain.code_blocks")
    observed

(* ---- structured event log --------------------------------------------- *)

module Log = Telemetry.Log

(* One pinned pipeline+campaign window (the same shape the bench's
   eventlog section measures); returns the multiset of Stable event keys.
   stable_key excludes t_ns/domain/seq, so worker scheduling must not
   show — Runtime events (pool lifecycle) are filtered by their class,
   exactly as Runtime metrics are above. *)
let run_logged_window () =
  Log.clear ();
  Pipeline.Evaluate.Plan_cache.clear ();
  let w = Workloads.by_name Workloads.scaled "tri" in
  let program = (Workloads.compile w).Minic.Compile.program in
  ignore
    (Pipeline.Evaluate.evaluate ~ks:[ 4; 5 ] ~scheme:`Auto
       ~name:w.Workloads.name program);
  let benches = [ Workloads.by_name Workloads.scaled "sor" ] in
  ignore
    (Fault.Campaign.run
       { Fault.Campaign.seed = 3; injections = 16; ks = [ 5 ]; benches });
  let stable =
    List.filter (fun e -> e.Log.stability = Metrics.Stable) (Log.events ())
  in
  List.sort compare (List.map Log.stable_key stable)

let with_log f =
  Log.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Log.set_enabled false;
      Log.clear ())
    f

let test_stable_log_events_match () =
  with_telemetry @@ fun () ->
  with_log @@ fun () ->
  force_sequential true;
  let seq = run_logged_window () in
  force_sequential false;
  let par = run_logged_window () in
  Alcotest.(check bool) "window emitted events" true (List.length seq > 0);
  Alcotest.(check (list string)) "stable event multisets" seq par

let test_log_lines_correlate () =
  (* acceptance pins for the event schema: every serialized line carries
     this run's run_id, and every span path on a line names a span that
     exists in the frozen telemetry record *)
  with_telemetry @@ fun () ->
  with_log @@ fun () ->
  force_sequential false;
  ignore (run_logged_window ());
  let events = Log.events () in
  let frozen_paths = List.map fst (Metrics.freeze ()).Metrics.spans in
  let spanned = ref 0 in
  List.iter
    (fun e ->
      (match Log.of_json (Log.to_json e) with
      | Ok (id, _) ->
          Alcotest.(check string) "line carries the run id" (Log.run_id ()) id
      | Error msg -> Alcotest.failf "emitted line failed to parse: %s" msg);
      match e.Log.span with
      | None -> ()
      | Some p ->
          incr spanned;
          Alcotest.(check bool)
            (Printf.sprintf "span %s exists in frozen record" p)
            true (List.mem p frozen_paths))
    events;
  Alcotest.(check bool) "some events carried span paths" true (!spanned > 0)

let () =
  (* a multi-domain pool on any host, single-core runners included *)
  Unix.putenv "POWERCODE_DOMAINS" "3";
  Alcotest.run "differential"
    [
      ( "seq vs parallel",
        [
          Alcotest.test_case "images and stable telemetry match" `Quick
            test_images_and_stable_totals_match;
          Alcotest.test_case "stable totals are live" `Quick
            test_stable_totals_are_live;
          Alcotest.test_case "stable totals match with the sampler running"
            `Quick test_stable_totals_match_under_sampler;
          Alcotest.test_case "stable log event multisets match" `Quick
            test_stable_log_events_match;
          Alcotest.test_case "log lines carry run id and live span paths"
            `Quick test_log_lines_correlate;
        ] );
    ]
