(* perfbench: the repository's benchmark (see README.md here).

     bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1

   A closed loop with one caller: each call into the libraries starts when
   the previous one returns.  The run sets up, warms up for a second,
   then times passes over the workload's calls.  Every call's output
   is checked against the golden files in golden/.  The last stdout line is
   one JSON object: end-to-end metrics with --trace 0, per-layer metrics
   with --trace 1. *)

let nproc = Domain.recommended_domain_count ()

(* The golden files were recorded with this seed.  Seed 20031 is held back:
   tune nothing on it, so a claimed gain can be rechecked on an unseen
   seed. *)
let golden_seed = 42
let ks_eval = [ 4; 5; 6; 7 ]
let ks_sweep = [ 2; 3; 4; 5; 6; 7 ]

(* Pins the domain pool for every workload: [nproc] domains, parallel mode
   on.  Parpool reads both variables on every call. *)
let set_domains n =
  Unix.putenv "POWERCODE_DOMAINS" (string_of_int n);
  Unix.putenv "POWERCODE_SEQ" ""

let with_domains n f =
  set_domains n;
  Fun.protect ~finally:(fun () -> set_domains nproc) f

(* ---- statistics ---------------------------------------------------------- *)

(* Quantile by the same rule as Python's [statistics.quantiles] (method
   "exclusive"). *)
let quantile xs p =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n = 1 then a.(0)
  else
    let pos = p *. float_of_int (n + 1) in
    let j = max 1 (min (n - 1) (int_of_float pos)) in
    let frac = Float.max 0.0 (Float.min 1.0 (pos -. float_of_int j)) in
    a.(j - 1) +. (frac *. (a.(j) -. a.(j - 1)))

let median xs = quantile xs 0.5
let sum = List.fold_left ( +. ) 0.0
let sumi = List.fold_left ( + ) 0

(* [repeat_median name f] times [f] once, and again while the total stays
   under 0.5 s (at most 9 times); cheap calls get a median, costly ones
   one sample.  Returns the last result and the median seconds. *)
let repeat_median name f =
  let rec go acc total n =
    let r, dt = Span.timed name f in
    let acc = dt :: acc and total = total +. dt in
    if n < 9 && total +. dt < 0.5 then go acc total (n + 1)
    else (r, median acc)
  in
  go [] 0.0 1

(* ---- golden outputs ------------------------------------------------------ *)

(* Exact renderings of each call's output.  Floats are printed in hex, so
   an equal rendering is an equal value. *)

let md5 s = Digest.to_hex (Digest.string s)

let render_report (r : Pipeline.Evaluate.report) =
  let b = Buffer.create 512 in
  let line fmt = Printf.bprintf b (fmt ^^ "\n") in
  line "instructions %d baseline %d businvert %d coverage %h output %s"
    r.instructions r.baseline_transitions r.businvert_transitions
    r.coverage_pct (md5 r.output);
  List.iter
    (fun (e : Pipeline.Evaluate.encoded_run) ->
      line "k %d transitions %d tt_used %d blocks %d" e.k e.transitions
        e.tt_used e.blocks_encoded)
    r.runs;
  List.iter
    (fun (s : Pipeline.Evaluate.scheme_run) ->
      line "scheme k %d counts %s auto_transitions %d auto_energy %h tt_energy %h reverted %b choices %s"
        s.srun_k
        (String.concat ","
           (List.map (fun (n, c) -> Printf.sprintf "%s:%d" n c) s.scheme_counts))
        s.auto_transitions s.auto_energy_j s.tt_energy_j s.reverted
        (md5
           (String.concat ";"
              (List.map
                 (fun (c : Pipeline.Evaluate.region_choice) ->
                   Printf.sprintf "%d/%d/%d/%s" c.rc_start c.rc_len c.rc_weight
                     c.rc_scheme)
                 s.choices))))
    r.schemes;
  (match r.ledger with
  | None -> ()
  | Some sheet ->
      line "ledger fetches %d baseline_bus %d" sheet.fetches
        sheet.baseline_bus.count;
      List.iter
        (fun (e : Ledger.Sheet.entry) ->
          line
            "ledger k %d encoded_bus %d tt_reads %d bbit_probes %d \
             gate_toggles %d reprogram_writes %d"
            e.k e.encoded_bus.count e.tt_reads.count e.bbit_probes.count
            e.gate_toggles.count e.reprogram_writes.count)
        sheet.entries);
  (match r.attribution with
  | None -> ()
  | Some a ->
      line "attribution fetches %d baseline %d encoded %s lines_blocks %s"
        a.fetches a.total_baseline
        (String.concat "," (Array.to_list (Array.map string_of_int a.total_encoded)))
        (md5 (Trace.Attribution.to_json a)));
  Buffer.contents b

let render_prepared (ps : Pipeline.Evaluate.prepared list) =
  String.concat ""
    (List.map
       (fun (p : Pipeline.Evaluate.prepared) ->
         let image = p.prep_system.Hardware.Reprogram.image in
         Printf.sprintf "k %d tt_used %d writes %d image %s\n" p.prep_k
           p.prep_plan.Powercode.Program_encoder.tt_used
           (Hardware.Reprogram.programming_writes p.prep_system)
           (md5
              (String.concat ","
                 (Array.to_list (Array.map string_of_int image)))))
       ps)

(* Golden files hold blocks of "@@ <key>" followed by the rendering. *)
let golden_path name = Filename.concat "perfbench/golden" (name ^ ".txt")

let load_golden name =
  let table = Hashtbl.create 128 in
  let path = golden_path name in
  if Sys.file_exists path then begin
    let ic = open_in_bin path in
    let key = ref None and buf = Buffer.create 256 in
    let flush () =
      Option.iter (fun k -> Hashtbl.replace table k (Buffer.contents buf)) !key;
      Buffer.clear buf
    in
    (try
       while true do
         let l = input_line ic in
         if String.length l > 3 && String.sub l 0 3 = "@@ " then begin
           flush ();
           key := Some (String.sub l 3 (String.length l - 3))
         end
         else (Buffer.add_string buf l; Buffer.add_char buf '\n')
       done
     with End_of_file -> ());
    flush ();
    close_in ic
  end;
  table

(* ---- workloads ----------------------------------------------------------- *)

type kernel = { kname : string; program : Isa.Program.t }

(* One call into the libraries: its span name, golden key, and a function
   returning the exact rendering plus the work units it did. *)
type op = {
  key : string;
  kernel : string;  (** "" for a campaign *)
  call : string;
  run : unit -> string * int;
}

type workload = {
  wname : string;
  work_unit : string;
  kernels : kernel list;  (** compiled in set-up; the layer probes run on them *)
  ops : op list;  (** one pass, in seed order *)
  campaign : Fault.Campaign.config option;
}

let compile_seconds = ref 0.0

let compile_kernels ws =
  List.map
    (fun (w : Workloads.t) ->
      let c, dt = Span.timed "minic.compile" (fun () -> Workloads.compile w) in
      compile_seconds := !compile_seconds +. dt;
      { kname = w.name; program = c.Minic.Compile.program })
    ws

let permute seed l =
  let a = Array.of_list l in
  let st = Random.State.make [| seed |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let paper names = List.map (Workloads.by_name Workloads.paper_sized) names
let extended names = List.map (Workloads.by_name Workloads.extended) names

type eval_config = {
  scheme : Pipeline.Evaluate.scheme;
  ledger : Ledger.Model.t option;
  attribution : bool;
}

let tt_config = { scheme = `Tt; ledger = None; attribution = false }

let accounting_config =
  { scheme = `Auto; ledger = Some Ledger.Model.on_chip; attribution = true }

let evaluate cfg k =
  Pipeline.Evaluate.evaluate ~ks:ks_eval ~scheme:cfg.scheme ?ledger:cfg.ledger
    ~attribution:cfg.attribution ~name:k.kname k.program

let eval_op cfg k =
  {
    key = k.kname;
    kernel = k.kname;
    call = "pipeline.evaluate";
    run =
      (fun () ->
        let r = evaluate cfg k in
        (render_report r, r.instructions));
  }

let last_campaign = ref None

let campaign_op (cfg : Fault.Campaign.config) =
  {
    key = Printf.sprintf "seed%d" cfg.seed;
    kernel = "";
    call = "fault.campaign";
    run =
      (fun () ->
        let r = Fault.Campaign.run cfg in
        let classified = sumi (List.map snd r.totals) in
        if classified <> cfg.injections || List.length r.records <> cfg.injections
        then failwith "campaign: class totals do not sum to the injections";
        last_campaign := Some r;
        (Fault.Campaign.to_json r, cfg.injections));
  }

let sweep_ops kernels =
  List.concat_map
    (fun k ->
      List.concat_map
        (fun cap ->
          List.concat_map
            (fun optimal ->
              List.map
                (fun (sname, mask) ->
                  {
                    key =
                      Printf.sprintf "%s cap%d %s %s" k.kname cap
                        (if optimal then "optimal" else "greedy")
                        sname;
                    kernel = k.kname;
                    call = "pipeline.prepare";
                    run =
                      (fun () ->
                        let ps =
                          Pipeline.Evaluate.prepare ~ks:ks_sweep ~tt_capacity:cap
                            ~subset_mask:mask ~optimal_chain:optimal k.program
                        in
                        (render_prepared ps, 1));
                  })
                [ ("paper8", Powercode.Subset.paper_eight_mask); ("all16", 0xffff) ])
            [ false; true ])
        [ 8; 16; 32; 64 ])
    kernels

let workload_names = [ "eval-paper"; "eval-accounting"; "campaign"; "plan-sweep" ]

(* The campaign's own config, and the small one the other workloads'
   traced runs use for the fault and pool probes. *)
let campaign_config seed injections =
  { Fault.Campaign.seed; injections; ks = ks_eval; benches = Workloads.scaled }

let make_workload name seed =
  match name with
  | "eval-paper" ->
      let kernels = compile_kernels (paper [ "mmul"; "sor"; "tri"; "fft" ]) in
      { wname = name; work_unit = "fetches"; kernels;
        ops = List.map (eval_op tt_config) (permute seed kernels);
        campaign = None }
  | "eval-accounting" ->
      let kernels =
        compile_kernels (paper [ "tri"; "fft" ] @ extended [ "dct"; "fir"; "iir" ])
      in
      { wname = name; work_unit = "fetches"; kernels;
        ops = List.map (eval_op accounting_config) (permute seed kernels);
        campaign = None }
  | "campaign" ->
      let cfg = campaign_config seed 600 in
      { wname = name; work_unit = "injections";
        kernels = compile_kernels Workloads.scaled;
        ops = [ campaign_op cfg ]; campaign = Some cfg }
  | "plan-sweep" ->
      let kernels = compile_kernels Workloads.scaled in
      { wname = name; work_unit = "prepares"; kernels;
        ops = permute seed (sweep_ops kernels); campaign = None }
  | _ -> invalid_arg name

(* ---- set-up -------------------------------------------------------------- *)

(* Set-up is compiling the kernels, loading the golden file and building
   the pass: about a millisecond.  Its time moves with the host's speed,
   which changes over seconds (in one process the same set-up took 0.57 ms
   and 0.9 ms a few seconds apart).  So it is timed in batches of
   [setup_batch], [setup_batches] at the start and one more before a call
   whenever half a second of timed passes has gone by.  The reported
   set-up and compile times are the median batch's, per set-up. *)
let setup_batch = 20
let setup_batches = 5
let setup_times = ref []
let compile_times = ref []
let last_batch = ref neg_infinity

(* Times one batch; returns its seconds. *)
let time_setup_batch name seed =
  compile_seconds := 0.0;
  let (), dt =
    Span.timed "bench.setup" (fun () ->
        for _ = 1 to setup_batch do
          ignore (Sys.opaque_identity (make_workload name seed, load_golden name))
        done)
  in
  let per = float_of_int setup_batch in
  setup_times := (dt /. per) :: !setup_times;
  compile_times := (!compile_seconds /. per) :: !compile_times;
  last_batch := Unix.gettimeofday ();
  dt

let setup name seed =
  let w = make_workload name seed and golden = load_golden name in
  for _ = 1 to setup_batches do
    ignore (time_setup_batch name seed)
  done;
  (w, golden)

(* Runs before each call of a timed pass; returns the seconds it took,
   which the pass does not count. *)
let between_calls = ref (fun () -> 0.0)

let interleave_setup name seed =
  between_calls :=
    fun () ->
      if Unix.gettimeofday () -. !last_batch < 0.5 then 0.0
      else time_setup_batch name seed

(* ---- passes -------------------------------------------------------------- *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable latencies : (string * float) list;  (** (key, seconds) per timed call *)
  mutable cache_hits : int;
  mutable cache_lookups : int;
}

let tally = { attempted = 0; failed = 0; latencies = []; cache_hits = 0; cache_lookups = 0 }

(* Without a golden rendering (a campaign seed other than [golden_seed]),
   every pass must reproduce the first one exactly. *)
let first_seen = Hashtbl.create 8

let check golden ~allow_unseen key rendering =
  match Hashtbl.find_opt golden key with
  | Some g -> String.equal g rendering
  | None when not allow_unseen -> false
  | None -> (
      match Hashtbl.find_opt first_seen key with
      | Some s -> String.equal s rendering
      | None ->
          Hashtbl.add first_seen key rendering;
          true)

type pass = {
  wall : float;  (** seconds *)
  work : int;
}

(* One pass: every call starts with a cold plan cache, as a fresh
   [powercode evaluate] process would.  With [timed] it also records each
   call's latency. *)
let run_pass w golden ~timed =
  let allow_unseen = w.campaign <> None in
  let work = ref 0 and latencies = ref [] and between = ref 0.0 in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun op ->
      if timed then between := !between +. !between_calls ();
      Pipeline.Evaluate.Plan_cache.clear ();
      tally.attempted <- tally.attempted + 1;
      match Span.timed op.call op.run with
      | (rendering, units), dt ->
          let hits, misses = Pipeline.Evaluate.Plan_cache.stats () in
          tally.cache_hits <- tally.cache_hits + hits;
          tally.cache_lookups <- tally.cache_lookups + hits + misses;
          work := !work + units;
          latencies := (op.key, dt) :: !latencies;
          let ok, _ =
            Span.timed "bench.check" (fun () ->
                check golden ~allow_unseen op.key rendering)
          in
          if not ok then begin
            tally.failed <- tally.failed + 1;
            Printf.eprintf "perfbench: %s: output differs from golden\n%!" op.key
          end
      | exception e ->
          tally.failed <- tally.failed + 1;
          Printf.eprintf "perfbench: %s raised %s\n%!" op.key (Printexc.to_string e))
    w.ops;
  let wall = Unix.gettimeofday () -. t0 -. !between in
  if timed then tally.latencies <- !latencies @ tally.latencies;
  { wall; work = !work }

let traced_pass w golden =
  Span.in_pass (fun pass ->
      let p, _ = Span.timed "bench.pass" (fun () -> run_pass w golden ~timed:false) in
      (pass, p))

(* Warm-up: the pass's calls in order until one second has passed (at
   least one call), untimed.  It fills the process's lazy tables and spawns
   the domain pool without a full pass, which takes up to 9 s. *)
let warm_up w golden =
  let t0 = Unix.gettimeofday () in
  let rec go = function
    | [] -> ()
    | op :: rest ->
        ignore (run_pass { w with ops = [ op ] } golden ~timed:false);
        if Unix.gettimeofday () -. t0 < 1.0 then go rest
  in
  go w.ops

let peak_heap_mib () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

(* ---- output -------------------------------------------------------------- *)

let json_metrics metrics =
  String.concat ","
    (List.map
       (fun (name, unit, v) ->
         Printf.sprintf "%S:{\"value\":%.17g,\"unit\":%S}" name v unit)
       metrics)

let print_result metrics =
  List.iter
    (fun (name, unit, v) -> Printf.printf "  %-36s %16.6g %s\n" name v unit)
    metrics;
  Printf.printf "  error_rate %d/%d\n" tally.failed tally.attempted;
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    (tally.failed = 0) tally.attempted tally.failed (json_metrics metrics)

(* ---- layer probes (traced run) ------------------------------------------ *)

(* The pc stream of one fault-free run, recorded in set-up from
   [Cpu.run ~on_fetch]; replays use its first [replay_cap] fetches.  It
   lives outside the OCaml heap so the GC never scans it, which would slow
   every later call in the run. *)
let replay_cap = 1 lsl 18

let record_stream program =
  let buf = Bigarray.(Array1.create int c_layout replay_cap) in
  let n = ref 0 in
  let on_fetch ~pc =
    if !n < replay_cap then begin
      Bigarray.Array1.unsafe_set buf !n pc;
      incr n
    end
  in
  let r = Machine.Cpu.run ~on_fetch program (Machine.Cpu.create_state ()) in
  (Bigarray.Array1.sub buf 0 !n, r.instructions)

let replay_ns name stream per_pc =
  let n = Bigarray.Array1.dim stream in
  let (), dt =
    Span.timed name (fun () ->
        for i = 0 to n - 1 do
          per_pc (Bigarray.Array1.unsafe_get stream i)
        done)
  in
  dt *. 1e9 /. float_of_int n

(* The accounting hooks of one kernel, timed alone. *)
type aprobe = {
  auto_count : float;  (** primed `Auto evaluate, no ledger or attribution *)
  full_count : float;  (** primed evaluate under [accounting_config] *)
  meter_ns : float;
  attribution_ns : float;
}

(* One kernel's layers, timed alone. *)
type kprobe = {
  fetches : int;
  bare : float;  (** Cpu.run, no hook *)
  hook : float;  (** Cpu.run with a no-op on_fetch *)
  collect : float;  (** Cfg.Profile.collect *)
  prepare : float;  (** cold Pipeline.Evaluate.prepare *)
  tt_count : float;  (** Tt evaluate with the plan cache primed by prepare *)
  businvert_ns : float;  (** per word *)
  decode_ns : float;  (** per fetch and decoder *)
  rebuild_s : float;
  acc : aprobe option;
}

(* Field by field median of one kernel's probes from several rounds. *)
let median_probe = function
  | [] -> invalid_arg "median_probe"
  | p :: _ as ps ->
      let m f = median (List.map f ps) in
      let acc =
        match List.filter_map (fun p -> p.acc) ps with
        | [] -> None
        | accs ->
            let m f = median (List.map f accs) in
            Some
              { auto_count = m (fun a -> a.auto_count);
                full_count = m (fun a -> a.full_count);
                meter_ns = m (fun a -> a.meter_ns);
                attribution_ns = m (fun a -> a.attribution_ns) }
      in
      { fetches = p.fetches; bare = m (fun p -> p.bare); hook = m (fun p -> p.hook);
        collect = m (fun p -> p.collect); prepare = m (fun p -> p.prepare);
        tt_count = m (fun p -> p.tt_count); businvert_ns = m (fun p -> p.businvert_ns);
        decode_ns = m (fun p -> p.decode_ns); rebuild_s = m (fun p -> p.rebuild_s); acc }

let acc p = Option.get p.acc

(* Primes the plan cache with a cold evaluate, then times primed ones. *)
let primed name cfg k =
  Pipeline.Evaluate.Plan_cache.clear ();
  ignore (evaluate cfg k);
  snd (repeat_median name (fun () -> evaluate cfg k))

let encoded_regions (p : Pipeline.Evaluate.prepared) npc =
  let map = Array.make npc false in
  List.iter
    (fun (pl : Powercode.Program_encoder.placement) ->
      Option.iter
        (fun (e : Powercode.Program_encoder.block_encoding) ->
          let start = pl.cand.start_index in
          for pc = start to min (npc - 1) (start + Bitutil.Bitmat.rows e.encoded - 1) do
            map.(pc) <- true
          done)
        pl.encoding)
    p.prep_plan.placements;
  map

let probe_accounting k stream (preps : Pipeline.Evaluate.prepared list) =
  let auto_count = primed "pipeline.evaluate" { tt_config with scheme = `Auto } k in
  let full_count = primed "pipeline.evaluate" accounting_config k in
  let words = Isa.Program.words k.program in
  let npc = Array.length words in
  let images = Array.of_list (List.map (fun (p : Pipeline.Evaluate.prepared) -> p.prep_system.image) preps) in
  let enc_at = Array.init npc (fun pc -> Array.map (fun img -> img.(pc)) images) in
  let encoded = Array.of_list (List.map (fun p -> encoded_regions p npc) preps) in
  let meter =
    Ledger.Meter.create ~name:k.kname ~model:Ledger.Model.on_chip
      ~ks:(Array.of_list ks_eval)
      ~encoded_region:(fun ~image ~pc -> pc >= 0 && pc < npc && encoded.(image).(pc))
  in
  let meter_ns =
    replay_ns "ledger.meter" stream (fun pc ->
        Ledger.Meter.record meter ~pc ~baseline:words.(pc) ~encoded:enc_at.(pc))
  in
  let blocks = Cfg.Block.partition (Isa.Program.insns k.program) in
  let pc_block = Array.make npc (-1) in
  Array.iteri
    (fun bi (b : Cfg.Block.t) ->
      for pc = b.start to min (npc - 1) (b.start + b.len - 1) do
        pc_block.(pc) <- bi
      done)
    blocks;
  let attr =
    Trace.Attribution.create
      ~labels:(Array.of_list (List.map (fun k -> "k" ^ string_of_int k) ks_eval))
      ~block_starts:(Array.map (fun (b : Cfg.Block.t) -> b.start) blocks)
      ~block_of_pc:(fun pc -> if pc >= 0 && pc < npc then pc_block.(pc) else -1)
  in
  let attribution_ns =
    replay_ns "trace.attribution" stream (fun pc ->
        Trace.Attribution.record attr ~pc ~baseline:words.(pc) ~encoded:enc_at.(pc))
  in
  { auto_count; full_count; meter_ns; attribution_ns }

let probe_kernel ~accounting k (stream, fetches) =
  Span.in_pass (fun _ ->
      let run ?on_fetch () =
        snd
          (Span.timed "machine.cpu" (fun () ->
               Machine.Cpu.run ?on_fetch k.program (Machine.Cpu.create_state ())))
      in
      (* bare and hooked runs alternate, so a slow spell of the host or
         the first run's cold caches do not land on one side only *)
      let rec runs bare hook n =
        let b = run () in
        let h = run ~on_fetch:(fun ~pc:_ -> ()) () in
        if n < 9 && sum bare +. sum hook +. b +. h < 1.0 then
          runs (b :: bare) (h :: hook) (n + 1)
        else (median (b :: bare), median (h :: hook))
      in
      let bare, hook = runs [] [] 1 in
      let _, collect =
        repeat_median "cfg.profile" (fun () -> Cfg.Profile.collect k.program)
      in
      (* the last cold prepare leaves the Tt plan cached: prepare and a Tt
         evaluate share a plan-cache key *)
      let preps, prepare =
        repeat_median "pipeline.prepare" (fun () ->
            Pipeline.Evaluate.Plan_cache.clear ();
            Pipeline.Evaluate.prepare ~ks:ks_eval k.program)
      in
      let _, tt_count = repeat_median "pipeline.evaluate" (fun () -> evaluate tt_config k) in
      let words = Isa.Program.words k.program in
      let bi = Buspower.Businvert.create () in
      let businvert_ns =
        replay_ns "buspower.businvert" stream (fun pc ->
            ignore (Buspower.Businvert.encode bi words.(pc)))
      in
      let decode_ns =
        sum
          (List.map
             (fun (p : Pipeline.Evaluate.prepared) ->
               let dec = Hardware.Reprogram.decoder p.prep_system in
               replay_ns "hardware.decode" stream (fun pc ->
                   ignore (Hardware.Fetch_decoder.fetch dec ~pc)))
             preps)
        /. float_of_int (List.length preps)
      in
      let rebuild_s =
        median
          (List.map
             (fun (p : Pipeline.Evaluate.prepared) ->
               snd (repeat_median "hardware.rebuild" p.rebuild))
             preps)
      in
      { fetches; bare; hook; collect; prepare; tt_count; businvert_ns; decode_ns;
        rebuild_s;
        acc = (if accounting then Some (probe_accounting k stream preps) else None) })

(* [Gc.minor_words] around one cold evaluate. *)
let minor_words cfg k =
  Pipeline.Evaluate.Plan_cache.clear ();
  let m0 = Gc.minor_words () in
  ignore (Span.timed "pipeline.evaluate" (fun () -> evaluate cfg k));
  Gc.minor_words () -. m0

(* Block-encode throughput on a seeded 256 x 32 matrix, large enough for
   the per-line fan-out over the pool. *)
let encode_bits_per_s seed =
  let rows = 256 in
  let st = Random.State.make [| seed |] in
  let words = Array.init rows (fun _ -> Random.State.bits32 st |> Int32.to_int |> ( land ) 0xffffffff) in
  let matrix = Bitutil.Bitmat.of_words ~width:32 words in
  let config = Powercode.Program_encoder.default_config () in
  Span.in_pass (fun _ ->
      let reps, dt =
        Span.timed "core.encode" (fun () ->
            let t0 = Unix.gettimeofday () in
            let reps = ref 0 in
            while Unix.gettimeofday () -. t0 < 0.25 do
              ignore (Powercode.Program_encoder.encode_block config matrix);
              incr reps
            done;
            !reps)
      in
      float_of_int (rows * 32 * reps) /. dt)

type cprobe = {
  front : float;  (** 1-injection campaign, cold *)
  wide : float;  (** campaign at width nproc *)
  narrow : float;  (** the same campaign at width 1 *)
  report : Fault.Campaign.report;
}

(* [wide] is the campaign workload's own (report, median pass seconds);
   other workloads time a small campaign at both widths here.  The report
   must not depend on the width. *)
let campaign_probe (cfg : Fault.Campaign.config) ~wide =
  Span.in_pass (fun _ ->
      let run cfg =
        Pipeline.Evaluate.Plan_cache.clear ();
        Span.timed "fault.campaign" (fun () -> Fault.Campaign.run cfg)
      in
      let _, front = run { cfg with injections = 1 } in
      let narrow_report, narrow = with_domains 1 (fun () -> run cfg) in
      let report, wide = match wide with Some rw -> rw | None -> run cfg in
      tally.attempted <- tally.attempted + 1;
      if Fault.Campaign.to_json report <> Fault.Campaign.to_json narrow_report
      then begin
        tally.failed <- tally.failed + 1;
        prerr_endline "perfbench: campaign report differs between pool widths"
      end;
      { front; wide; narrow; report })

(* ---- layer attribution (traced run) ------------------------------------- *)

let layers =
  [ "minic"; "machine"; "cfg"; "core"; "pipeline"; "buspower"; "ledger";
    "trace"; "hardware"; "fault"; "bench" ]

(* Each layer's cost for one pass's work, from its calls measured alone.
   An evaluate is a profile run (cfg over a hooked CPU run), planning
   (core), and a counting run: a hooked CPU run (machine), bus-invert
   (buspower), the Auto, ledger and attribution hooks when on, and the
   count loop itself (pipeline, what the primed evaluate leaves after the
   other parts). *)
let attribute_eval ~accounting probes add =
  List.iter
    (fun p ->
      let f = float_of_int p.fetches *. 1e-9 in
      add "machine" (2.0 *. p.hook);
      add "cfg" (p.collect -. p.hook);
      add "core" (p.prepare -. p.collect);
      let businvert = p.businvert_ns *. f in
      add "buspower" businvert;
      let count, hooks =
        if accounting then begin
          let a = acc p in
          let auto = a.auto_count -. p.tt_count in
          let ledger = a.meter_ns *. f and trace = a.attribution_ns *. f in
          add "buspower" auto;
          add "ledger" ledger;
          add "trace" trace;
          (a.full_count, Float.max 0.0 auto +. ledger +. trace)
        end
        else (p.tt_count, 0.0)
      in
      add "pipeline" (count -. p.hook -. businvert -. hooks))
    probes

(* A campaign is a serial front (compile, golden runs and plans for every
   bench, then one injection) and injections spread over [width] domains,
   each a rebuild plus a run through the fetch decoder: the bench's golden
   length, or the cycle cap for a hang. *)
let attribute_campaign ~compile_s ~width (kernels : (kernel * kprobe) list)
    (c : cprobe) add =
  let front_parts = ref compile_s in
  let part l v =
    add l v;
    front_parts := !front_parts +. Float.max 0.0 v
  in
  add "minic" compile_s;
  List.iter
    (fun (_, p) ->
      part "machine" (p.bare +. p.hook);
      part "cfg" (p.collect -. p.hook);
      part "core" (p.prepare -. p.collect))
    kernels;
  add "fault" (c.front -. !front_parts);
  let w = float_of_int width in
  List.iter
    (fun (r : Fault.Campaign.record) ->
      match List.find_opt (fun (k, _) -> k.kname = r.bench) kernels with
      | None -> ()
      | Some (_, p) ->
          let fetches =
            match r.outcome with
            | Hang { limit } -> float_of_int limit
            | _ -> float_of_int p.fetches
          in
          add "machine" (fetches *. p.bare /. float_of_int p.fetches /. w);
          add "hardware" (((fetches *. p.decode_ns *. 1e-9) +. p.rebuild_s) /. w))
    (List.tl c.report.records)

(* A cold prepare is a profile run and planning. *)
let attribute_sweep ops (kernels : (kernel * kprobe) list) ~prepare_total add =
  let collect_total = ref 0.0 in
  List.iter
    (fun op ->
      let p = List.assoc op.kernel (List.map (fun (k, p) -> (k.kname, p)) kernels) in
      add "machine" p.hook;
      add "cfg" (p.collect -. p.hook);
      collect_total := !collect_total +. p.collect)
    ops;
  add "core" (prepare_total -. !collect_total)

(* ---- the traced run ------------------------------------------------------ *)

let trace_run w golden ~seed ~seconds ~compile_s =
  (* probes for the Auto, ledger and attribution hooks and for planning
     run on the workload's own kernels, except in eval-paper: there they
     use the scaled six, because on paper-size kernels an Auto evaluate
     costs seconds and planning (prepare minus profile) is below the noise
     of one profile run *)
  let acc_kernels =
    if w.wname = "eval-paper" then compile_kernels Workloads.scaled else w.kernels
  in
  let streams =
    List.map
      (fun k -> (k, record_stream k.program))
      (w.kernels @ List.filter (fun k -> not (List.memq k w.kernels)) acc_kernels)
  in
  let probe ~accounting k = probe_kernel ~accounting k (List.assq k streams) in
  let accounting = w.wname = "eval-accounting" in
  (* Rounds of an untraced pass, a traced pass and the probes of the pass's
     kernels, so that the passes and the layers timed alone see the same
     host.  At least two rounds, for half of [seconds]. *)
  tally.cache_hits <- 0;
  tally.cache_lookups <- 0;
  let t0 = Unix.gettimeofday () in
  let rec rounds acc =
    if List.length acc >= 2 && Unix.gettimeofday () -. t0 >= seconds /. 2.0 then acc
    else begin
      Span.enabled := false;
      let untraced = run_pass w golden ~timed:false in
      Span.enabled := true;
      let traced = traced_pass w golden in
      let probes = List.map (fun k -> (k, probe ~accounting k)) w.kernels in
      rounds ((untraced, traced, probes) :: acc)
    end
  in
  let rounds = rounds [] in
  let untraced = List.map (fun (u, _, _) -> u) rounds in
  let traced = List.map (fun (_, t, _) -> t) rounds in
  let probes =
    List.map
      (fun k -> (k, median_probe (List.map (fun (_, _, ps) -> List.assq k ps) rounds)))
      w.kernels
  in
  let hit_ratio =
    if tally.cache_lookups = 0 then 0.0
    else float_of_int tally.cache_hits /. float_of_int tally.cache_lookups
  in
  let wall = median (List.map (fun p -> p.wall) untraced) in
  let overhead_pct =
    let traced = median (List.map (fun (_, p) -> p.wall) traced) in
    100.0 *. (traced -. wall) /. wall
  in
  let bench_self =
    median
      (List.map
         (fun (pass, _) ->
           Option.value (Hashtbl.find_opt (Span.self_by_layer pass) "bench") ~default:0.0)
         traced)
  in
  (* the accounting probes outside eval-accounting, and the allocation
     count, do not enter the layer table: they are measured once *)
  let acc_probes =
    List.map
      (fun k ->
        match List.assq_opt k probes with
        | Some p when p.acc <> None -> (k, p)
        | Some p ->
            let stream = fst (List.assq k streams) in
            let preps = Pipeline.Evaluate.prepare ~ks:ks_eval k.program in
            (k, { p with acc = Some (probe_accounting k stream preps) })
        | None -> (k, probe ~accounting:true k))
      acc_kernels
  in
  let pass_cfg = if accounting then accounting_config else tt_config in
  let minor = sum (List.map (fun k -> minor_words pass_cfg k) w.kernels) in
  let campaign =
    match w.campaign with
    | Some cfg ->
        let report = Option.get !last_campaign in
        campaign_probe cfg ~wide:(Some (report, wall))
    | None -> campaign_probe (campaign_config seed 48) ~wide:None
  in
  let encode_wide = encode_bits_per_s seed in
  let encode_narrow = with_domains 1 (fun () -> encode_bits_per_s seed) in
  (* per-layer self time of one pass; a part that reads negative (its
     pieces timed alone cost more than the whole) counts as 0 and is
     reported as clamped, so it shows in the unexplained share *)
  let self = Hashtbl.create 16 and clamped = ref 0.0 in
  let add l v =
    if v < 0.0 then clamped := !clamped -. v
    else Hashtbl.replace self l (v +. Option.value (Hashtbl.find_opt self l) ~default:0.0)
  in
  (match w.wname with
  | "eval-paper" -> attribute_eval ~accounting:false (List.map snd probes) add
  | "eval-accounting" -> attribute_eval ~accounting:true (List.map snd probes) add
  | "campaign" -> attribute_campaign ~compile_s ~width:nproc probes campaign add
  | _ ->
      let prepare_total =
        median (List.map (fun (pass, _) -> Span.total pass "pipeline.prepare") traced)
      in
      attribute_sweep w.ops probes ~prepare_total add);
  add "bench" bench_self;
  let self_ms l = 1e3 *. Option.value (Hashtbl.find_opt self l) ~default:0.0 in
  let layer_sum = sum (List.map self_ms layers) in
  let unexplained = 100.0 *. ((wall *. 1e3) -. layer_sum) /. (wall *. 1e3) in
  Printf.printf "layer self time per pass (%s, untraced pass %.1f ms, %d rounds):\n"
    w.wname (wall *. 1e3) (List.length rounds);
  List.iter
    (fun l ->
      Printf.printf "  %-10s %12.2f ms %7.2f%%\n" l (self_ms l) (100.0 *. self_ms l /. (wall *. 1e3)))
    layers;
  Printf.printf "  %-10s %12.2f ms against pass wall %.2f ms; unexplained %.2f%%\n" "sum"
    layer_sum (wall *. 1e3) unexplained;
  if !clamped > 0.0 then
    Printf.printf "  clamped    %12.2f ms of negative layer parts counted as 0\n"
      (!clamped *. 1e3);
  let fetches ps = float_of_int (sumi (List.map (fun (_, p) -> p.fetches) ps)) in
  let per_fetch ps f = 1e9 *. sum (List.map (fun (_, p) -> f p) ps) /. fetches ps in
  let weighted ps f =
    sum (List.map (fun (_, p) -> f p *. float_of_int p.fetches) ps) /. fetches ps
  in
  let nk = float_of_int (List.length probes) in
  let hangs =
    float_of_int (List.assoc "hang" campaign.report.totals)
    /. float_of_int (List.length campaign.report.records)
  in
  let metrics =
    [
      ("minic.compile_ms", "ms", compile_s *. 1e3);
      ("machine.cpu_ns_per_fetch", "ns", per_fetch probes (fun p -> p.bare));
      ("machine.hook_ns_per_fetch", "ns", per_fetch probes (fun p -> p.hook -. p.bare));
      ("cfg.profile_ns_per_fetch", "ns", per_fetch probes (fun p -> p.collect));
      ( "core.plan_ms", "ms",
        1e3 *. sum (List.map (fun (_, p) -> p.prepare -. p.collect) acc_probes)
        /. float_of_int (List.length acc_probes) );
      ("core.encode_bits_per_s", "1/s", encode_wide);
      ("core.encode_bits_per_s_w1", "1/s", encode_narrow);
      ( "pipeline.count_ns_per_fetch_image", "ns",
        per_fetch probes (fun p -> p.tt_count) /. float_of_int (List.length ks_eval) );
      ( "pipeline.accounting_ns_per_fetch", "ns",
        per_fetch acc_probes (fun p -> (acc p).full_count -. p.tt_count) );
      ("pipeline.minor_words_per_fetch", "words", minor /. fetches probes);
      ("pipeline.plan_cache_hit_ratio", "ratio", hit_ratio);
      ("ledger.meter_ns_per_fetch", "ns", weighted acc_probes (fun p -> (acc p).meter_ns));
      ( "trace.attribution_ns_per_fetch", "ns",
        weighted acc_probes (fun p -> (acc p).attribution_ns) );
      ("buspower.businvert_ns_per_word", "ns", weighted probes (fun p -> p.businvert_ns));
      ( "buspower.auto_ns_per_fetch", "ns",
        per_fetch acc_probes (fun p -> (acc p).auto_count -. p.tt_count) );
      ("hardware.decode_ns_per_fetch", "ns", weighted probes (fun p -> p.decode_ns));
      ("hardware.rebuild_us", "us", 1e6 *. sum (List.map (fun (_, p) -> p.rebuild_s) probes) /. nk);
      ("fault.serial_front_ms", "ms", campaign.front *. 1e3);
      ("fault.hang_share", "ratio", hangs);
      ("parpool.campaign_speedup", "ratio", campaign.narrow /. campaign.wide);
      ("bench.pass_ms", "ms", wall *. 1e3);
      ("bench.layer_sum_ms", "ms", layer_sum);
      ("bench.unexplained_pct", "%", unexplained);
      ("bench.clamped_ms", "ms", !clamped *. 1e3);
      ("bench.tracing_overhead_pct", "%", overhead_pct);
    ]
    @ List.map (fun l -> ("self_ms." ^ l, "ms", self_ms l)) layers
  in
  (try Sys.mkdir ".bench_build" 0o755 with Sys_error _ -> ());
  Span.write (Printf.sprintf ".bench_build/spans-%s-seed%d.jsonl" w.wname seed);
  metrics

(* ---- end-to-end run ------------------------------------------------------ *)

let measure w golden ~seconds =
  let t0 = Unix.gettimeofday () in
  let passes = ref [] in
  while List.length !passes < 3 || Unix.gettimeofday () -. t0 < seconds do
    passes := run_pass w golden ~timed:true :: !passes
  done;
  let work = (List.hd !passes).work in
  (* each distinct call contributes its median latency, so calls of very
     different sizes (mmul next to fft) do not make the pooled quantiles
     jump between clusters *)
  let keys = List.sort_uniq compare (List.map fst tally.latencies) in
  let per_call =
    List.map
      (fun k ->
        median
          (List.filter_map
             (fun (k', dt) -> if k' = k then Some dt else None)
             tally.latencies))
      keys
  in
  let pass_s = median (List.map (fun p -> p.wall) !passes) in
  Printf.printf
    "%d passes of %d %s, median %.3f s; %d calls timed, %d distinct; %d set-up \
     batches\n"
    (List.length !passes) work w.work_unit pass_s (List.length tally.latencies)
    (List.length keys) (List.length !setup_times);
  [
    ("setup_s", "s", median !setup_times);
    ("work_per_s", "1/s", float_of_int work /. pass_s);
    ("call_p50_ms", "ms", 1e3 *. quantile per_call 0.5);
    ("call_p90_ms", "ms", 1e3 *. quantile per_call 0.9);
    ("peak_heap_mb", "MiB", peak_heap_mib ());
  ]

(* ---- main ---------------------------------------------------------------- *)

let write_golden name =
  let w = make_workload name golden_seed in
  let oc = open_out_bin (golden_path name) in
  List.iter
    (fun op ->
      Pipeline.Evaluate.Plan_cache.clear ();
      Printf.fprintf oc "@@ %s\n%s" op.key (fst (op.run ())))
    (List.sort (fun a b -> compare a.key b.key) w.ops);
  close_out oc

let () =
  let workload = ref "" and seed = ref golden_seed and seconds = ref 10.0 in
  let trace = ref 0 and golden_only = ref false in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME " ^ String.concat " | " workload_names);
      ("--seed", Arg.Set_int seed, "N input seed (golden files: 42)");
      ("--seconds", Arg.Set_float seconds, "S time to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--write-golden", Arg.Set golden_only, " record the workload's golden outputs and exit");
    ]
  in
  let usage = "perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]" in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if not (List.mem !workload workload_names) || (!trace <> 0 && !trace <> 1) then begin
    Arg.usage specs usage;
    exit 2
  end;
  set_domains nproc;
  if !golden_only then (write_golden !workload; exit 0);
  Span.enabled := !trace = 1;
  let w, golden = setup !workload !seed in
  if Hashtbl.length golden = 0 then begin
    Printf.eprintf "perfbench: no golden file %s\n" (golden_path !workload);
    exit 1
  end;
  Printf.printf "perfbench %s seed %d: pool width %d (POWERCODE_DOMAINS=%d), %d calls per pass\n%!"
    w.wname !seed (Powercode.Parpool.worker_count () + 1) nproc (List.length w.ops);
  warm_up w golden;
  let metrics =
    if !trace = 1 then
      trace_run w golden ~seed:!seed ~seconds:!seconds
        ~compile_s:(median !compile_times)
    else begin
      interleave_setup !workload !seed;
      measure w golden ~seconds:!seconds
    end
  in
  print_result metrics
