(* Encoding runs on the calling domain; Parpool's per-call domains serve
   the fault campaign.  These tests pin the Parpool contract (env toggles,
   width pinning, on-demand claiming, each index run exactly once,
   exception propagation, sequential nested calls, per-slot gauges) and
   that encodes running concurrently on several domains, each with its own
   scratch arena and sharing the code-table memo, match a plain call bit
   for bit. *)

module Bitmat = Bitutil.Bitmat
module PE = Powercode.Program_encoder
module Parpool = Powercode.Parpool

let check_int = Alcotest.(check int)

let force_sequential b = Unix.putenv "POWERCODE_SEQ" (if b then "1" else "0")

let random_matrix ~seed ~rows =
  let state = ref seed in
  let words =
    Array.init rows (fun _ ->
        state := !state lxor (!state lsl 13);
        state := !state lxor (!state lsr 7);
        state := !state lxor (!state lsl 17);
        !state land 0xffffffff)
  in
  Bitmat.of_words ~width:32 words

let check_same_encoding ~msg a b =
  Alcotest.(check (array int))
    (msg ^ ": encoded image")
    (Bitmat.words a.PE.encoded) (Bitmat.words b.PE.encoded);
  check_int (msg ^ ": entry count") (Array.length a.PE.entries)
    (Array.length b.PE.entries);
  Array.iteri
    (fun j (ea : PE.tt_entry) ->
      let eb = b.PE.entries.(j) in
      Alcotest.(check (array int))
        (Printf.sprintf "%s: entry %d taus" msg j)
        (Array.map Powercode.Boolfun.index ea.PE.taus)
        (Array.map Powercode.Boolfun.index eb.PE.taus);
      Alcotest.(check bool) "is_end" ea.PE.is_end eb.PE.is_end;
      check_int "count" ea.PE.count eb.PE.count)
    a.PE.entries

(* larger than any basic block of the compiled kernels (85 rows) *)
let big_rows = 228

let test_roundtrip_big_block () =
  List.iter
    (fun config ->
      let m = random_matrix ~seed:4242 ~rows:big_rows in
      let e = PE.encode_block config m in
      let decoded =
        PE.decode_block ~k:config.PE.k ~entries:e.PE.entries e.PE.encoded
      in
      Alcotest.(check (array int))
        (Printf.sprintf "roundtrip optimal_chain=%b" config.PE.optimal_chain)
        (Bitmat.words m) (Bitmat.words decoded))
    [
      PE.default_config ();
      { (PE.default_config ()) with PE.optimal_chain = true };
    ]

let test_sequential_env_is_live () =
  force_sequential true;
  Alcotest.(check bool) "seq on" true (Parpool.sequential_mode ());
  force_sequential false;
  Alcotest.(check bool) "seq off" false (Parpool.sequential_mode ())

let test_parallel_init_matches_array_init () =
  force_sequential false;
  let f i = (i * 31) lxor (i lsl 3) in
  Alcotest.(check (array int))
    "parallel_init = Array.init" (Array.init 257 f)
    (Parpool.parallel_init 257 f);
  Alcotest.(check (array int)) "empty" [||] (Parpool.parallel_init 0 f)

let with_domains value f =
  let saved = Sys.getenv_opt "POWERCODE_DOMAINS" in
  Unix.putenv "POWERCODE_DOMAINS" value;
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "POWERCODE_DOMAINS" (Option.value saved ~default:""))
    f

let test_domains_env_pins_width () =
  (* POWERCODE_DOMAINS requests TOTAL domains (caller + workers), is
     consulted on every call, clamps to the pool cap, and ignores garbage *)
  with_domains "1" (fun () -> check_int "1 domain, 0 workers" 0 (Parpool.worker_count ()));
  with_domains "3" (fun () -> check_int "3 domains, 2 workers" 2 (Parpool.worker_count ()));
  with_domains "99" (fun () ->
      check_int "clamped to the pool cap" Parpool.max_workers
        (Parpool.worker_count ()));
  let default = Parpool.worker_count () in
  with_domains "0" (fun () ->
      check_int "non-positive ignored" default (Parpool.worker_count ()));
  with_domains "banana" (fun () ->
      check_int "garbage ignored" default (Parpool.worker_count ()))

let test_concurrent_encodes_agree () =
  (* eight encodes at once on pinned widths, each domain growing its own
     arena and looking tables up in the shared memo, equal one plain call *)
  force_sequential false;
  List.iter
    (fun (seed, config) ->
      let m = random_matrix ~seed ~rows:big_rows in
      let plain = PE.encode_block config m in
      List.iter
        (fun width ->
          with_domains width (fun () ->
              Array.iteri
                (fun i par ->
                  check_same_encoding
                    ~msg:(Printf.sprintf "domains=%s call %d k=%d" width i
                            config.PE.k)
                    plain par)
                (Parpool.parallel_init 8 (fun _ -> PE.encode_block config m))))
        [ "2"; "4" ])
    [
      (7919, PE.default_config ());
      (104729, PE.default_config ~k:7 ());
      (1299709, { (PE.default_config ()) with PE.optimal_chain = true });
    ]

let with_metrics f =
  let module Metrics = Telemetry.Metrics in
  Metrics.reset ();
  Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ())
    f

let test_per_slot_gauges_sum_to_pool_totals () =
  (* acceptance pin: the per-slot busy/idle/task gauges partition the
     pool-wide parpool.busy_ns / parpool.idle_ns / parpool.chunks counters
     exactly — slot 0 is the claiming caller, slots 1.. the workers *)
  let module Metrics = Telemetry.Metrics in
  let module Tel = Telemetry.Registry in
  force_sequential false;
  with_metrics @@ fun () ->
  with_domains "4" (fun () ->
      for seed = 1 to 3 do
        ignore
          (Parpool.parallel_init 32 (fun i ->
               Bitmat.words (random_matrix ~seed:((seed * 7919) + i) ~rows:64)))
      done);
  let sum g =
    let acc = ref 0 in
    for i = 0 to Metrics.gauge_slots g - 1 do
      acc := !acc + Metrics.gauge_value g i
    done;
    !acc
  in
  let chunks = Metrics.counter_total Tel.parpool_chunks in
  Alcotest.(check bool) "pool actually ran chunks" true (chunks > 0);
  check_int "slot tasks partition parpool.chunks" chunks
    (sum Tel.parpool_worker_tasks);
  check_int "slot busy partitions parpool.busy_ns"
    (Metrics.counter_total Tel.parpool_busy_ns)
    (sum Tel.parpool_worker_busy_ns);
  check_int "slot idle partitions parpool.idle_ns"
    (Metrics.counter_total Tel.parpool_idle_ns)
    (sum Tel.parpool_worker_idle_ns);
  Alcotest.(check bool) "width gauge saw the pool" true
    (Metrics.gauge_value Tel.parpool_width 0 >= 1)

let test_parallel_init_propagates_exception () =
  force_sequential false;
  match
    Parpool.parallel_init 64 (fun i ->
        if i = 33 then failwith "boom" else i)
  with
  | _ -> Alcotest.fail "expected exception"
  | exception Failure m -> Alcotest.(check string) "message" "boom" m

let test_slow_index_does_not_stall_others () =
  (* index 0 blocks until every other index has finished: with items
     claimed on demand the second domain drains 1..7 meanwhile, where a
     static split would leave some of them queued behind index 0 *)
  force_sequential false;
  let finished = Atomic.make 0 in
  let n = 8 in
  let f i =
    if i > 0 then begin
      Atomic.incr finished;
      true
    end
    else begin
      let deadline = Unix.gettimeofday () +. 5.0 in
      while Atomic.get finished < n - 1 && Unix.gettimeofday () < deadline do
        Unix.sleepf 0.001
      done;
      Atomic.get finished = n - 1
    end
  in
  let r = with_domains "2" (fun () -> Parpool.parallel_init n f) in
  Alcotest.(check bool) "indices 1..7 finished while index 0 waited" true
    r.(0)

let test_each_index_runs_once () =
  force_sequential false;
  List.iter
    (fun width ->
      let n = 500 in
      let runs = Array.init n (fun _ -> Atomic.make 0) in
      let r =
        with_domains width (fun () ->
            Parpool.parallel_init n (fun i ->
                Atomic.incr runs.(i);
                i * i))
      in
      Alcotest.(check (array int))
        ("results at width " ^ width)
        (Array.init n (fun i -> i * i))
        r;
      Array.iteri
        (fun i c ->
          check_int (Printf.sprintf "width %s index %d runs" width i) 1
            (Atomic.get c))
        runs)
    [ "2"; "3"; "4" ]

let test_nested_call_runs_sequentially () =
  let module Tel = Telemetry.Registry in
  force_sequential false;
  with_metrics @@ fun () ->
  let g j = (j * 7) + 1 in
  let outer = 4 in
  let r =
    with_domains "3" (fun () ->
        Parpool.parallel_init outer (fun _ -> Parpool.parallel_init 5 g))
  in
  Array.iter
    (Alcotest.(check (array int)) "inner = Array.init" (Array.init 5 g))
    r;
  check_int "one parallel job" 1
    (Telemetry.Metrics.counter_total Tel.parpool_jobs);
  check_int "every inner call fell back to sequential" outer
    (Telemetry.Metrics.counter_total Tel.parpool_seq_fallbacks)

let test_caller_covers_the_call () =
  (* slot 0 is busy claiming or idle at the join for the whole call, so a
     50 ms item bounds its busy + idle from below whichever domain ran it;
     the 5 ms item keeps the caller busy while a worker claims the slow
     one *)
  let module Metrics = Telemetry.Metrics in
  let module Tel = Telemetry.Registry in
  force_sequential false;
  with_metrics @@ fun () ->
  ignore
    (with_domains "2" (fun () ->
         Parpool.parallel_init 4 (fun i ->
             if i = 0 then Unix.sleepf 0.005
             else if i = 3 then Unix.sleepf 0.05)));
  let covered =
    Metrics.gauge_value Tel.parpool_worker_busy_ns 0
    + Metrics.gauge_value Tel.parpool_worker_idle_ns 0
  in
  Alcotest.(check bool)
    (Printf.sprintf "slot 0 busy + idle = %d ns >= 45 ms" covered)
    true
    (covered >= 45_000_000)

let () =
  Alcotest.run "parallel"
    [
      ( "encode_block",
        [
          Alcotest.test_case "228-row round trip" `Quick
            test_roundtrip_big_block;
        ] );
      ( "parpool",
        [
          Alcotest.test_case "env toggle is live" `Quick
            test_sequential_env_is_live;
          Alcotest.test_case "parallel_init = Array.init" `Quick
            test_parallel_init_matches_array_init;
          Alcotest.test_case "exception propagation" `Quick
            test_parallel_init_propagates_exception;
          Alcotest.test_case "POWERCODE_DOMAINS pins width" `Quick
            test_domains_env_pins_width;
          Alcotest.test_case "pinned widths agree" `Quick
            test_concurrent_encodes_agree;
          Alcotest.test_case "per-slot gauges sum to pool totals" `Quick
            test_per_slot_gauges_sum_to_pool_totals;
          Alcotest.test_case "slow index does not stall others" `Quick
            test_slow_index_does_not_stall_others;
          Alcotest.test_case "each index runs once" `Quick
            test_each_index_runs_once;
          Alcotest.test_case "nested call runs sequentially" `Quick
            test_nested_call_runs_sequentially;
          Alcotest.test_case "caller covers the call" `Quick
            test_caller_covers_the_call;
        ] );
    ]
