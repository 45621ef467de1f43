(* Regression gate: diff a fresh BENCH_encoding.json against the committed
   bench/baseline.json.

     dune exec bench/compare.exe -- [--baseline FILE] [--current FILE]
                                    [--time-band PCT]

   Comparison policy (the whole point of the tool):
     - deterministic results — evaluations (transition counts, coverage,
       TT usage) and the per-bitline attribution — must match EXACTLY;
       these are machine-independent, so any drift is a behaviour change.
     - wall-clock figures (workloads[].*_ns_per_insn, chain_encode_256,
       the throughput sweep rates, plan-cache cold/warm timings, and the
       allocation counts) only need to stay within +/- time-band percent
       of the baseline; CI machines vary widely, so the default band is
       generous.  The plan_cache hit/miss counts are a pure function of
       the harness's call sequence, so they are diffed exactly.
     - self-relative speedup floors are enforced from the current run
       alone: a plan-cache-warm prepare >= 1.3x cold always; the
       widest-domains campaign leg >= 2x the domains=1 leg only when the
       run recorded >= 4 cores (skipped with a stderr note below that —
       an exactly-2-core machine sits right at the floor, and a
       single-core one cannot reach it at all).
     - the telemetry section is ignored: Bechamel picks repetition counts
       by wall-clock quota, so those counters are machine-dependent.

   Exit codes: 0 = within policy, 1 = regression, 2 = incomparable
   (missing/bad file, different schema/mode/settings, or a whole top-level
   section absent on either side — every absent section is named first).
   Regression lines go to stdout without numeric values (stable for cram);
   the numbers go to stderr.  With --trend the history.jsonl log is judged
   by trend.ml's gate, the one reader of that log. *)

let baseline_path = ref "bench/baseline.json"
let current_path = ref "BENCH_encoding.json"
let history_path = ref "bench/history.jsonl"
let time_band = ref 300.0
let run_trend = ref false

let args =
  [
    ("--baseline", Arg.Set_string baseline_path, "FILE committed baseline json");
    ("--current", Arg.Set_string current_path, "FILE freshly generated json");
    ( "--history",
      Arg.Set_string history_path,
      "FILE append-only run log (history.jsonl) that --trend gates" );
    ( "--time-band",
      Arg.Set_float time_band,
      "PCT allowed wall-clock drift, percent (default 300)" );
    ( "--trend",
      Arg.Set run_trend,
      " gate the latest history entry against its trailing same-schema \
       window (trend.ml policy); a trend regression fails the compare" );
  ]

let usage =
  "compare [--baseline FILE] [--current FILE] [--history FILE] \
   [--time-band PCT] [--trend]"

let die_incomparable msg =
  print_endline ("bench compare: incomparable (" ^ msg ^ ")");
  exit 2

let read_file path =
  match open_in_bin path with
  | exception Sys_error msg -> die_incomparable msg
  | ic ->
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s

let load path =
  match Jsonu.of_string (read_file path) with
  | Ok v -> v
  | Error e -> die_incomparable (path ^ ": " ^ Jsonu.error_to_string e)

(* ---- classification --------------------------------------------------- *)

type rule = Ignore | Exact | Band

let banded_leaves =
  [
    "encode_ns_per_insn"; "decode_ns_per_insn"; "evaluate_ns_per_insn";
    "builder_ns"; "seed_style_ns"; "speedup";
    (* schema /5: throughput sweep rates and plan-cache/alloc timings are
       wall-clock; the counts next to them (requested_domains, domains,
       campaign_injections, plan_cache hits/misses, block_rows) stay exact *)
    "campaign_s"; "injections_per_s"; "encode_s"; "bits_per_s";
    "cold_s"; "warm_s"; "warm_speedup";
    "before_minor_words_per_block"; "after_minor_words_per_block";
    "reduction_factor";
    (* schema /7: the observability section's figures are scheduling- and
       wall-clock-dependent (pool busy/idle split, GC pacing, sampler
       cadence); the structural constants next to them (pool slots, the
       sampler interval, the validator verdict) stay exact *)
    "samples"; "bytes"; "width"; "busy_ns"; "idle_ns"; "chunks";
    "utilization_pct"; "profile_minor_words"; "plan_minor_words";
    "count_minor_words"; "major_words"; "collections"; "heap_words";
    "top_heap_words";
    (* schema /8: the eventlog window's Stable-event counts are a pure
       function of the pinned workload and diff exactly; Runtime events
       would depend on scheduling, and the serialized byte
       total ("bytes", banded above) rides on the run_id length *)
    "runtime_events";
  ]

let classify path =
  match path with
  | "telemetry" :: _ -> Ignore
  (* settings are preconditions (checked up front); domains only warns *)
  | "settings" :: _ -> Ignore
  | _ -> (
      match List.rev path with
      | leaf :: _ when List.mem leaf banded_leaves -> Band
      | _ -> Exact)

(* ---- comparison ------------------------------------------------------- *)

let exact_checked = ref 0
let band_checked = ref 0
let regressions = ref 0

let show_path path = String.concat "." (List.rev path)

let fail ~kind rpath detail =
  incr regressions;
  Printf.printf "regression: %s (%s)\n" (show_path rpath) kind;
  Printf.eprintf "  %s: %s\n" (show_path rpath) detail

let feq a b =
  a = b || Float.abs (a -. b) <= 1e-9 *. Float.max (Float.abs a) (Float.abs b)

let num_member doc key = Option.bind (Jsonu.member key doc) Jsonu.to_float

(* Arrays of {"name": ...} objects (evaluations, attribution) index by name
   in paths, so a reordered baseline reads sensibly; throughput legs are
   keyed by their requested domain count instead. *)
let element_label i v =
  match Option.bind (Jsonu.member "name" v) Jsonu.to_string_opt with
  | Some name -> Printf.sprintf "[%s]" name
  | None -> (
      match num_member v "requested_domains" with
      | Some d -> Printf.sprintf "[d%g]" d
      | None -> Printf.sprintf "[%d]" i)

let rec walk rpath (b : Jsonu.t) (c : Jsonu.t) =
  match classify (List.rev rpath) with
  | Ignore -> ()
  | rule -> (
      match (b, c) with
      | Jsonu.Obj bf, Jsonu.Obj cf ->
          List.iter
            (fun (key, bv) ->
              match List.assoc_opt key cf with
              | Some cv -> walk (key :: rpath) bv cv
              | None ->
                  fail ~kind:"structure" (key :: rpath) "missing in current")
            bf;
          List.iter
            (fun (key, _) ->
              if List.assoc_opt key bf = None then
                fail ~kind:"structure" (key :: rpath)
                  "new field not in baseline (regenerate bench/baseline.json)")
            cf
      | Jsonu.Arr bl, Jsonu.Arr cl ->
          if List.length bl <> List.length cl then
            fail ~kind:"structure" rpath
              (Printf.sprintf "length %d -> %d (regenerate bench/baseline.json)"
                 (List.length bl) (List.length cl))
          else
            List.iteri
              (fun i (bv, cv) -> walk (element_label i bv :: rpath) bv cv)
              (List.combine bl cl)
      | Jsonu.Str x, Jsonu.Str y ->
          incr exact_checked;
          if x <> y then
            fail ~kind:"exact" rpath (Printf.sprintf "%S -> %S" x y)
      | Jsonu.Bool x, Jsonu.Bool y ->
          incr exact_checked;
          if x <> y then
            fail ~kind:"exact" rpath (Printf.sprintf "%b -> %b" x y)
      | Jsonu.Null, Jsonu.Null -> ()
      | _ -> (
          (* numbers compare by value whether written 3 or 3.0 *)
          match (Jsonu.to_float b, Jsonu.to_float c) with
          | Some x, Some y when rule = Band ->
              incr band_checked;
              let limit = Float.abs x *. (!time_band /. 100.0) in
              if Float.abs (y -. x) > limit then
                fail ~kind:"band" rpath
                  (Printf.sprintf "%.2f -> %.2f (allowed +/-%.0f%%)" x y
                     !time_band)
          | Some x, Some y ->
              incr exact_checked;
              if not (feq x y) then
                fail ~kind:"exact" rpath (Printf.sprintf "%.4f -> %.4f" x y)
          | _ -> fail ~kind:"structure" rpath "value kind changed"))

(* ---- section inventory ------------------------------------------------ *)

(* A file missing a whole top-level section is a schema mismatch, not a
   regression: the two runs came from different harness versions, so a
   field-by-field diff would drown the real signal.  Name every absent
   section on both sides, then refuse (exit 2). *)
let check_sections base cur =
  let keys = function
    | Jsonu.Obj fields -> List.map fst fields
    | _ -> die_incomparable "top level is not an object"
  in
  let bkeys = keys base and ckeys = keys cur in
  let missing_in l = List.filter (fun k -> not (List.mem k l)) in
  let gone = missing_in ckeys bkeys in
  let added = missing_in bkeys ckeys in
  List.iter
    (fun k -> Printf.printf "section missing in current: %s\n" k)
    gone;
  List.iter
    (fun k ->
      Printf.printf
        "section missing in baseline: %s (regenerate bench/baseline.json)\n" k)
    added;
  if gone <> [] || added <> [] then
    die_incomparable "top-level sections differ"

(* ---- speedup floors ---------------------------------------------------- *)

(* The raw-speed work has hard floors, read from the CURRENT run only (they
   are self-relative ratios, so the baseline's machine doesn't matter):

     - the widest-domains campaign leg must run >= 2x the injections/s of
       the domains=1 leg.  The campaign's parallel fraction caps an
       exactly-2-core machine right at 2x, so this floor is only enforced
       when the run recorded >= 4 cores; below that it is skipped with a
       note on stderr (and never on single-core CI, where it is
       physically unattainable).
     - a plan-cache-warm prepare must be >= 1.3x faster than cold.  The
       cache serves the profiling and planning work from a lookup, so
       this holds on any core count and is always enforced.  (Full
       evaluates are not floored: the ratio is taken on the phase the
       cache fronts.) *)
let campaign_floor = 2.0
let campaign_floor_min_cores = 4.0
let warm_floor = 1.3

let check_speedup_floors cur =
  let cores =
    num_member
      (Option.value (Jsonu.member "settings" cur) ~default:Jsonu.Null)
      "cores"
  in
  (match cores with
  | Some c when c >= campaign_floor_min_cores -> (
      let legs =
        match Jsonu.member "throughput" cur with
        | Some (Jsonu.Arr l) -> l
        | _ -> []
      in
      let leg_rate leg =
        match
          (num_member leg "requested_domains", num_member leg "injections_per_s")
        with
        | Some d, Some r -> Some (d, r)
        | _ -> None
      in
      let rates = List.filter_map leg_rate legs in
      let d1 = List.assoc_opt 1.0 rates in
      let widest =
        List.fold_left
          (fun acc (d, r) ->
            match acc with
            | Some (dd, _) when dd >= d -> acc
            | _ -> Some (d, r))
          None rates
      in
      match (d1, widest) with
      | Some r1, Some (dmax, rmax) when dmax >= 2.0 && r1 > 0.0 ->
          let speedup = rmax /. r1 in
          if speedup < campaign_floor then
            fail ~kind:"floor"
              [ "campaign_speedup"; "throughput" ]
              (Printf.sprintf "%.2fx (d%g vs d1) < required %.1fx" speedup
                 dmax campaign_floor)
          else
            Printf.eprintf "floor: campaign d%g/d1 speedup %.2fx (>= %.1fx)\n"
              dmax speedup campaign_floor
      | _ ->
          fail ~kind:"floor"
            [ "campaign_speedup"; "throughput" ]
            "throughput legs for the floor check are missing")
  | _ ->
      Printf.eprintf
        "note: campaign speedup floor skipped (recorded cores < %.0f)\n"
        campaign_floor_min_cores);
  match
    num_member
      (Option.value (Jsonu.member "plan_cache" cur) ~default:Jsonu.Null)
      "warm_speedup"
  with
  | Some s ->
      if s < warm_floor then
        fail ~kind:"floor"
          [ "warm_speedup"; "plan_cache" ]
          (Printf.sprintf "%.2fx < required %.1fx" s warm_floor)
      else
        Printf.eprintf "floor: plan-cache warm speedup %.2fx (>= %.1fx)\n" s
          warm_floor
  | None ->
      fail ~kind:"floor"
        [ "warm_speedup"; "plan_cache" ]
        "plan_cache.warm_speedup missing"

(* ---- trend gate -------------------------------------------------------- *)

(* Opt-in (--trend): the analyzer from trend.ml over the --history
   file.  Regression names go to stdout without numbers (stable
   for cram); details and warnings to stderr.  Trend regressions count
   toward the exit-1 total like any other. *)
let trend_gate () =
  if !run_trend then begin
    match Trend.load_history !history_path with
    | Error msg -> Printf.eprintf "trend: no history (%s); gate skipped\n" msg
    | Ok (entries, skipped) ->
        let r = Trend.analyze entries skipped in
        List.iter
          (fun (leaf, detail) ->
            incr regressions;
            Printf.printf "trend regression: %s\n" leaf;
            Printf.eprintf "  trend %s: %s\n" leaf detail)
          r.Trend.regressions;
        List.iter
          (fun (leaf, detail) ->
            Printf.eprintf "trend warning: %s (%s)\n" leaf detail)
          r.Trend.warnings;
        Printf.eprintf "trend: %d leaves over %d same-schema prior run(s)\n"
          (List.length r.Trend.rows) r.Trend.window
  end

(* ---- preconditions ---------------------------------------------------- *)

let get_str doc key =
  Option.bind (Jsonu.member key doc) Jsonu.to_string_opt

let setting doc key =
  Option.bind
    (Option.bind (Jsonu.member "settings" doc) (Jsonu.member key))
    (fun v ->
      match v with
      | Jsonu.Bool b -> Some (string_of_bool b)
      | Jsonu.Str s -> Some s
      | v -> Option.map (Printf.sprintf "%g") (Jsonu.to_float v))

let require_same what a b =
  if a <> b then
    die_incomparable
      (Printf.sprintf "%s: %s vs %s" what
         (Option.value a ~default:"<absent>")
         (Option.value b ~default:"<absent>"))

let () =
  Arg.parse args
    (fun anon -> raise (Arg.Bad ("unexpected argument " ^ anon)))
    usage;
  let base = load !baseline_path in
  let cur = load !current_path in
  require_same "schema" (get_str base "schema") (get_str cur "schema");
  require_same "mode" (get_str base "mode") (get_str cur "mode");
  require_same "settings.powercode_fast"
    (setting base "powercode_fast")
    (setting cur "powercode_fast");
  require_same "settings.powercode_seq"
    (setting base "powercode_seq")
    (setting cur "powercode_seq");
  (if setting base "domains" <> setting cur "domains" then
     Printf.eprintf
       "note: domain count differs (%s vs %s); results are \
        order-independent, continuing\n"
       (Option.value (setting base "domains") ~default:"<absent>")
       (Option.value (setting cur "domains") ~default:"<absent>"));
  check_sections base cur;
  walk [] base cur;
  check_speedup_floors cur;
  trend_gate ();
  if !regressions > 0 then begin
    Printf.printf "bench compare: %d regression(s)\n" !regressions;
    exit 1
  end
  else begin
    Printf.printf "bench compare: OK (exact=%d banded=%d, time band +/-%.0f%%)\n"
      !exact_checked !band_checked !time_band;
    exit 0
  end
