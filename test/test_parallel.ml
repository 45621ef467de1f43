(* Encoding runs on the calling domain; the domain pool serves the fault
   campaign.  These tests pin the pool contract (env toggles, width
   pinning, exception propagation, per-slot gauges) and that encodes
   running concurrently on several domains, each with its own scratch
   arena and sharing the code-table memo, match a plain call bit for
   bit. *)

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

let test_per_slot_gauges_sum_to_pool_totals () =
  (* acceptance pin: the per-slot busy/idle/task gauges partition the
     pool-wide parpool.busy_ns / parpool.idle_ns / parpool.chunks counters
     exactly — slot 0 is the helping caller, slots 1.. the workers *)
  let module Metrics = Telemetry.Metrics in
  let module Tel = Telemetry.Registry in
  force_sequential false;
  Metrics.reset ();
  Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ())
  @@ fun () ->
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
  check_int "queue drained back to depth 0" 0
    (Metrics.gauge_value Tel.parpool_queue_depth 0);
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
        ] );
    ]
