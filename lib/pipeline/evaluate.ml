module Metrics = Telemetry.Metrics
module Tel = Telemetry.Registry
module Log = Telemetry.Log

type encoded_run = {
  k : int;
  transitions : int;
  reduction_pct : float;
  tt_used : int;
  blocks_encoded : int;
  verified_fetches : int;
}

(* Per-region scheme selection (the multi-backend auto-tuner). *)
type scheme = [ `Tt | `Auto | `Fixed of string ]

type region_choice = {
  rc_start : int;  (** instruction index of the encoded region head *)
  rc_len : int;  (** words actually stored encoded *)
  rc_weight : int;  (** dynamic execution count *)
  rc_scheme : string;  (** ["tt"] or a registered backend name *)
}

type scheme_run = {
  srun_k : int;
  choices : region_choice list;
  scheme_counts : (string * int) list;  (** scheme -> regions, ["tt"] first *)
  auto_transitions : int;  (** exact bus transitions under the selection *)
  auto_reduction_pct : float;
  auto_energy_j : float;  (** bus + table reads/writes under the selection *)
  tt_energy_j : float;  (** same accounting, every region TT *)
  reverted : bool;
      (** the measured selection cost more than all-TT, so the commit rule
          fell back to TT everywhere (never reported worse than TT) *)
}

type report = {
  name : string;
  instructions : int;
  baseline_transitions : int;
  businvert_transitions : int;
  runs : encoded_run list;
  coverage_pct : float;
  output : string;
  attribution : Trace.Attribution.summary option;
  ledger : Ledger.Sheet.t option;
  schemes : scheme_run list;  (** empty under the default [`Tt] scheme *)
}

exception Verification_failed of { pc : int; expected : int; got : int }

(* Counting costs one popcount per fetch edge and image, and the replay
   one per fetch and image when it prices a stateful bus. *)
let popcount32 = Bitutil.Popcount.count32

let candidate_of_block words profile (b : Cfg.Block.t) =
  let body = Array.sub words b.Cfg.Block.start b.Cfg.Block.len in
  {
    Powercode.Program_encoder.start_index = b.Cfg.Block.start;
    body = Bitutil.Bitmat.of_words ~width:32 body;
    weight = Cfg.Profile.block_weight profile b;
  }

type selection = [ `Hot_blocks | `Hot_loops ]

(* GC accounting around each pipeline phase: [Gc.quick_stat] deltas feed
   the standing gc.<phase>.* counters, and the heap gauges track the major
   heap at phase boundaries.  GC stats are per-domain in OCaml 5, so these
   deltas cover the calling domain; worker-domain allocation shows up in
   the pool's busy time, not here.  Minor words come from [Gc.minor_words],
   the precise allocation counter: [quick_stat]'s copy only advances when
   the young area flushes, so a phase allocating less than one minor heap
   would nondeterministically record zero. *)
let gc_phase (minor_words, major_words, minor_collections, major_collections)
    f =
  if not (Metrics.enabled ()) then f ()
  else begin
    let s0 = Gc.quick_stat () in
    let mw0 = Gc.minor_words () in
    Fun.protect
      ~finally:(fun () ->
        let s1 = Gc.quick_stat () in
        Metrics.add minor_words (int_of_float (Gc.minor_words () -. mw0));
        Metrics.add major_words
          (int_of_float (s1.Gc.major_words -. s0.Gc.major_words));
        Metrics.add minor_collections
          (s1.Gc.minor_collections - s0.Gc.minor_collections);
        Metrics.add major_collections
          (s1.Gc.major_collections - s0.Gc.major_collections);
        Metrics.set_gauge Tel.gc_heap_words 0 s1.Gc.heap_words;
        if
          s1.Gc.top_heap_words > Metrics.gauge_value Tel.gc_top_heap_words 0
        then Metrics.set_gauge Tel.gc_top_heap_words 0 s1.Gc.top_heap_words)
      f
  end

let gc_profile_phase =
  Tel.
    ( gc_profile_minor_words,
      gc_profile_major_words,
      gc_profile_minor_collections,
      gc_profile_major_collections )

let gc_plan_phase =
  Tel.
    ( gc_plan_minor_words,
      gc_plan_major_words,
      gc_plan_minor_collections,
      gc_plan_major_collections )

let gc_count_phase =
  Tel.
    ( gc_count_minor_words,
      gc_count_major_words,
      gc_count_minor_collections,
      gc_count_major_collections )

(* Everything block selection produces that both [evaluate] and the system
   preparation below need. *)
type context = {
  profile : Cfg.Profile.t;
  blocks : Cfg.Block.t array;
  hot_blocks : Cfg.Block.t list;
  candidates : Powercode.Program_encoder.candidate list;
  functions : Powercode.Boolfun.t array;
  bbit_capacity : int;
  subset_mask : int;
}

let context ?subset_mask ?(selection = `Hot_blocks) program =
  let subset_mask =
    match subset_mask with
    | Some m -> m
    | None -> Powercode.Subset.paper_eight_mask
  in
  let words = Isa.Program.words program in
  let blocks = Cfg.Block.partition (Isa.Program.insns program) in
  (* pass 1: profile *)
  let profile, _ =
    Metrics.with_span Tel.span_profile (fun () ->
        gc_phase gc_profile_phase (fun () -> Cfg.Profile.collect program))
  in
  let hot_blocks =
    Array.to_list blocks
    |> List.filter (fun b -> Cfg.Profile.block_weight profile b > 0)
  in
  let selected_blocks =
    match selection with
    | `Hot_blocks -> hot_blocks
    | `Hot_loops ->
        let doms = Cfg.Dominator.compute blocks in
        let loops = Cfg.Loop.detect blocks doms in
        List.filter
          (fun (b : Cfg.Block.t) ->
            List.exists (fun l -> Cfg.Loop.contains l b.Cfg.Block.index) loops)
          hot_blocks
  in
  let candidates = List.map (candidate_of_block words profile) selected_blocks in
  if Log.enabled () then
    Log.info "pipeline.phase"
      [
        ("phase", Log.Str "profile");
        ("hot_blocks", Log.Int (List.length hot_blocks));
        ("candidates", Log.Int (List.length candidates));
      ];
  (* the hardware's gate set must match the subset the encoder drew from *)
  let functions = Array.of_list (Powercode.Boolfun.list_of_mask subset_mask) in
  let bbit_capacity = max 16 (List.length candidates) in
  { profile; blocks; hot_blocks; candidates; functions; bbit_capacity;
    subset_mask }

type prepared = {
  prep_k : int;
  prep_plan : Powercode.Program_encoder.plan;
  prep_system : Hardware.Reprogram.system;
  rebuild : unit -> Hardware.Reprogram.system;
  prep_profile : Cfg.Profile.t;
}

let plan_only ~tt_capacity ~optimal_chain ctx ks =
  Metrics.with_span Tel.span_plan @@ fun () ->
  gc_phase gc_plan_phase @@ fun () ->
  let plans =
    List.map
      (fun k ->
        let config =
          {
            Powercode.Program_encoder.k;
            subset_mask = ctx.subset_mask;
            tt_capacity;
            optimal_chain;
          }
        in
        (k, Powercode.Program_encoder.plan config ctx.candidates))
      ks
  in
  if Log.enabled () then
    Log.info "pipeline.phase"
      [
        ("phase", Log.Str "plan");
        ("ks", Log.Str (String.concat "," (List.map string_of_int ks)));
        ("plans", Log.Int (List.length plans));
      ];
  plans

(* Content-addressed cache of the expensive front half (profile + plan).
   The cached context and plans are immutable once built: decode systems
   are always rebuilt fresh (they are mutated by reprogramming and by
   fault injection), so sharing plans across evaluations is safe.  Keys
   hold the full program image plus every option that feeds block
   selection or encoding; the FNV fingerprint only short-circuits
   comparisons — a lookup succeeds on full structural equality, never on
   hash alone. *)
module Plan_cache = struct
  type key = {
    key_words : int array;
    key_ks : int list;
    key_tt_capacity : int;
    key_subset_mask : int option;
    key_optimal_chain : bool;
    key_selection : selection;
    key_scheme : scheme;
  }

  type entry = {
    hash : int;
    key : key;
    ctx : context;
    plans : (int * Powercode.Program_encoder.plan) list;
  }

  let fnv_prime = 0x100000001b3
  let fnv_step h x = (h lxor x) * fnv_prime land max_int

  let hash_key k =
    let h = ref (fnv_step 0x3bf29ce484222325 (Array.length k.key_words)) in
    Array.iter (fun w -> h := fnv_step !h w) k.key_words;
    List.iter (fun x -> h := fnv_step !h x) k.key_ks;
    h := fnv_step !h k.key_tt_capacity;
    h :=
      fnv_step !h
        (match k.key_subset_mask with None -> -1 | Some m -> m);
    h := fnv_step !h (Bool.to_int k.key_optimal_chain);
    h :=
      fnv_step !h
        (match k.key_selection with `Hot_blocks -> 0 | `Hot_loops -> 1);
    (match k.key_scheme with
    | `Tt -> h := fnv_step !h 0
    | `Auto -> h := fnv_step !h 1
    | `Fixed name ->
        h := fnv_step !h 2;
        String.iter (fun c -> h := fnv_step !h (Char.code c)) name);
    !h

  let key_equal a b =
    a.key_ks = b.key_ks
    && a.key_tt_capacity = b.key_tt_capacity
    && a.key_subset_mask = b.key_subset_mask
    && a.key_optimal_chain = b.key_optimal_chain
    && a.key_selection = b.key_selection
    && a.key_scheme = b.key_scheme
    && (a.key_words == b.key_words || a.key_words = b.key_words)

  (* Enough for every workload in the bench suite plus a campaign's bench
     list; beyond that the least recently used entry is dropped. *)
  let max_entries = 32

  let entries : entry list ref = ref []
  let mutex = Mutex.create ()
  let enabled_flag = ref true
  let hit_count = ref 0
  let miss_count = ref 0

  let set_enabled b = enabled_flag := b
  let enabled () = !enabled_flag

  let clear () =
    Mutex.lock mutex;
    entries := [];
    hit_count := 0;
    miss_count := 0;
    Mutex.unlock mutex

  let stats () = (!hit_count, !miss_count)

  (* the FNV fingerprint, printed the way log events and humans compare *)
  let key_hex hash = Printf.sprintf "%016x" hash

  let find hash key =
    Mutex.lock mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock mutex)
      (fun () ->
        match
          List.find_opt
            (fun e -> e.hash = hash && key_equal e.key key)
            !entries
        with
        | Some e ->
            incr hit_count;
            Metrics.incr Tel.plan_cache_hits;
            if Log.enabled () then
              Log.debug "plan.cache_hit" [ ("key", Log.Str (key_hex hash)) ];
            (* move-to-front: the list doubles as LRU order *)
            entries := e :: List.filter (fun e' -> e' != e) !entries;
            Some (e.ctx, e.plans)
        | None ->
            incr miss_count;
            Metrics.incr Tel.plan_cache_misses;
            if Log.enabled () then
              Log.debug "plan.cache_miss" [ ("key", Log.Str (key_hex hash)) ];
            None)

  let insert hash key ctx plans =
    Mutex.lock mutex;
    let keep = List.filteri (fun i _ -> i < max_entries - 1) !entries in
    entries := { hash; key; ctx; plans } :: keep;
    Mutex.unlock mutex
end

(* The shared front half of [prepare] and [evaluate]: context (profile +
   block selection) and one plan per block size, through the cache when it
   is enabled. *)
let context_and_plans ~ks ~tt_capacity ~subset_mask ~optimal_chain ~selection
    ~scheme program =
  let compute () =
    let ctx = context ?subset_mask ?selection:(Some selection) program in
    (ctx, plan_only ~tt_capacity ~optimal_chain ctx ks)
  in
  if not (Plan_cache.enabled ()) then compute ()
  else begin
    let key =
      {
        Plan_cache.key_words = Isa.Program.words program;
        key_ks = ks;
        key_tt_capacity = tt_capacity;
        key_subset_mask = subset_mask;
        key_optimal_chain = optimal_chain;
        key_selection = selection;
        key_scheme = scheme;
      }
    in
    let hash = Plan_cache.hash_key key in
    match Plan_cache.find hash key with
    | Some (ctx, plans) -> (ctx, plans)
    | None ->
        let ctx, plans = compute () in
        Plan_cache.insert hash key ctx plans;
        (ctx, plans)
  end

let systems_of_plans ~tt_capacity ctx program plans =
  List.map
    (fun (k, plan) ->
      let build () =
        Hardware.Reprogram.build ~tt_capacity ~bbit_capacity:ctx.bbit_capacity
          ~functions:ctx.functions program plan
      in
      {
        prep_k = k;
        prep_plan = plan;
        prep_system = build ();
        rebuild = build;
        prep_profile = ctx.profile;
      })
    plans

let prepare ?(ks = [ 4; 5; 6; 7 ]) ?(tt_capacity = 16) ?subset_mask
    ?(optimal_chain = false) ?(selection = `Hot_blocks) program =
  let ctx, plans =
    context_and_plans ~ks ~tt_capacity ~subset_mask ~optimal_chain ~selection
      ~scheme:`Tt program
  in
  systems_of_plans ~tt_capacity ctx program plans

(* -------------------------------------------------------------------- *)
(* Per-region scheme auto-selection.

   Only word-at-a-time backends covering the full 32-line bus qualify as
   fetch-path alternatives: a backend with [latency_words > 0] (the
   streaming TT) would stall fetch waiting for lookahead — the paper's TT
   gets its lookahead offline, through the stored image, which is the
   form the pipeline already implements.  Region membership detection is
   the BBIT's existing job, so a per-region decoder knows when to apply
   its scheme, exactly as the TT regions do. *)

let fetch_path_backends () =
  Buspower.Backends.ensure ();
  List.filter
    (fun b ->
      let module B = (val b : Buspower.Encoder.S) in
      B.max_width >= 32
      && (B.cost ~width:32).Buspower.Encoder.latency_words = 0)
    (Buspower.Encoder.all ())

let scheme_name b =
  let module B = (val b : Buspower.Encoder.S) in
  B.scheme

(* [None]: every region stays TT; [Some (`Choose alts)]: per-region
   scored choice among [alts], TT unless strictly cheaper; [Some
   (`Force b)]: every region takes [b] regardless of score. *)
let resolve_scheme = function
  | `Tt | `Fixed "tt" -> None
  | `Auto -> Some (`Choose (fetch_path_backends ()))
  | `Fixed name -> (
      let eligible = fetch_path_backends () in
      match
        List.find_opt (fun b -> String.equal (scheme_name b) name) eligible
      with
      | Some b -> Some (`Force b)
      | None ->
          invalid_arg
            (Printf.sprintf
               "Pipeline.Evaluate: %S is not a fetch-path scheme (want tt, \
                auto, or one of: %s)"
               name
               (String.concat ", " (List.map scheme_name eligible))))

(* One encoded region of one k-plan, with everything scoring needs. *)
type region = {
  rg_start : int;
  rg_len : int;
  rg_weight : int;
  rg_tt_static : int;  (* stored-image transitions of one body traversal *)
}

(* Runtime state of a region that selected a non-TT backend: a persistent
   encoder stepped once per fetch, plus the ledger charges its choice
   carries.  The closure hides the backend's encoder type. *)
type alt_runtime = {
  art_scheme : string;
  art_step : int -> Buspower.Encoder.codeword;
  art_reads_per_fetch : int;
  art_table_words : int;
  mutable art_fetches : int;
}

let alt_runtime b =
  let module B = (val b : Buspower.Encoder.S) in
  let e = B.encoder ~width:32 in
  let c = B.cost ~width:32 in
  {
    art_scheme = B.scheme;
    art_step =
      (fun w ->
        match B.encode e w with
        | [ cw ] -> cw
        | _ ->
            failwith "Pipeline.Evaluate: latency-0 backend emitted <> 1 codeword");
    art_reads_per_fetch = c.Buspower.Encoder.reads_per_fetch;
    art_table_words = (c.Buspower.Encoder.table_bits + 31) / 32;
    art_fetches = 0;
  }

(* Conservative static score, in joules per program run: weighted encoded
   stream transitions (plus a worst-case full-bus seam each traversal for
   non-incumbent schemes), per-fetch side-table reads, and the one-time
   table programming.  Deterministic: ties and near-ties keep TT, and
   among alternatives the first strictly-better backend in registration
   order wins.  Returns the winner (None = keep TT) together with every
   candidate's score, TT first — the event log records the full slate so
   a choice can be audited without rescoring. *)
let choose_backend ~alts ~model ~per_t ~words (rg : region) =
  let fl = float_of_int in
  let w = fl rg.rg_weight in
  let tt_score =
    (w *. fl rg.rg_tt_static *. per_t)
    +. (w *. fl rg.rg_len *. model.Ledger.Model.tt_read_j)
  in
  let body = Array.sub words rg.rg_start rg.rg_len in
  let best = ref None and best_score = ref tt_score in
  let scores = ref [ ("tt", tt_score) ] in
  List.iter
    (fun b ->
      let module B = (val b : Buspower.Encoder.S) in
      let c = B.cost ~width:32 in
      let t = Buspower.Encoder.stream_transitions b ~width:32 body in
      let seam = 32 + B.aux_width ~width:32 in
      let score =
        (w *. fl (t + seam) *. per_t)
        +. (w *. fl rg.rg_len *. fl c.Buspower.Encoder.reads_per_fetch
           *. model.Ledger.Model.tt_read_j)
        +. (fl ((c.Buspower.Encoder.table_bits + 31) / 32)
           *. model.Ledger.Model.table_write_j)
      in
      scores := (B.scheme, score) :: !scores;
      if score < !best_score then begin
        best := Some b;
        best_score := score
      end)
    alts;
  (!best, List.rev !scores)

(* -------------------------------------------------------------------- *)
(* The stages after planning: pick a scheme per region, count, replay when
   a consumer needs the fetch stream, account. *)

(* One planned block size with the maps counting and replay share: the
   stored image and, per pc, the encoded region it lies in.  A block's head
   may be covered only partially when the TT ran short, so extents come
   from the encoding actually patched into the image, not the candidate
   body. *)
type image = {
  im_k : int;
  im_plan : Powercode.Program_encoder.plan;
  im_system : Hardware.Reprogram.system;
  im_words : int array;
  im_regions : region array;
  im_region_of_pc : int array;  (* pc -> index into [im_regions], or -1 *)
}

let image_of_prepared npc p =
  let regions =
    Array.of_list
      (List.filter_map
         (fun pl ->
           match pl.Powercode.Program_encoder.encoding with
           | None -> None
           | Some enc ->
               Some
                 {
                   rg_start = pl.Powercode.Program_encoder.cand.start_index;
                   rg_len =
                     Bitutil.Bitmat.rows enc.Powercode.Program_encoder.encoded;
                   rg_weight = pl.Powercode.Program_encoder.cand.weight;
                   rg_tt_static =
                     Bitutil.Bitmat.transitions
                       enc.Powercode.Program_encoder.encoded;
                 })
         p.prep_plan.Powercode.Program_encoder.placements)
  in
  let region_of_pc = Array.make npc (-1) in
  Array.iteri
    (fun ri rg ->
      for pc = rg.rg_start to min (npc - 1) (rg.rg_start + rg.rg_len - 1) do
        region_of_pc.(pc) <- ri
      done)
    regions;
  {
    im_k = p.prep_k;
    im_plan = p.prep_plan;
    im_system = p.prep_system;
    im_words = p.prep_system.Hardware.Reprogram.image;
    im_regions = regions;
    im_region_of_pc = region_of_pc;
  }

(* Per image and region, the backend the region takes ([None]: TT), with
   one [scheme.region] event per region: the scored slate, the winner, and
   whether the choice was forced rather than scored. *)
let pick_schemes sel ~model ~words images =
  let per_t = Buspower.Energy.per_transition model.Ledger.Model.bus in
  let region_event ~k ~forced rg winner scores =
    Log.info "scheme.region"
      ([
         ("k", Log.Int k);
         ("start", Log.Int rg.rg_start);
         ("len", Log.Int rg.rg_len);
         ("weight", Log.Int rg.rg_weight);
         ("winner", Log.Str winner);
         ("forced", Log.Bool forced);
       ]
      @ List.map (fun (s, v) -> ("cost_" ^ s, Log.Float v)) scores)
  in
  let pick ~k rg =
    match sel with
    | `Force b ->
        if Log.enabled () then region_event ~k ~forced:true rg (scheme_name b) [];
        Some b
    | `Choose alts ->
        let winner, scores = choose_backend ~alts ~model ~per_t ~words rg in
        if Log.enabled () then
          region_event ~k ~forced:false rg
            (match winner with None -> "tt" | Some b -> scheme_name b)
            scores;
        winner
  in
  Array.map (fun im -> Array.map (pick ~k:im.im_k) im.im_regions) images

let reduction_pct ~baseline transitions =
  if baseline = 0 then 0.0
  else 100.0 *. (1.0 -. (float_of_int transitions /. float_of_int baseline))

(* The mixed bus of one image under the selection: data plus the chosen
   backends' redundant lines. *)
type mixed = {
  mx_transitions : int;
  mx_tt_fetches : int;  (* fetches in regions left TT *)
  mx_alts : alt_runtime option array;  (* per region; [None]: TT *)
}

(* The replay: a second CPU run, driving only the consumers that need the
   fetch stream itself — trace events, fetch-path verification, and a
   mixed bus with a non-TT region (its encoder is stateful, and the aux
   lines hold their value across TT and unencoded fetches).  Returns the
   fetches each image's decoder verified and, given [stateful] picks, each
   image's mixed bus. *)
let replay program ~profile ~blocks ~pc_block ~verify ~stateful images =
  let words = Isa.Program.words program in
  let nimg = Array.length images in
  let pc_is_start = Array.make (Array.length words) false in
  Array.iter (fun (b : Cfg.Block.t) -> pc_is_start.(b.start) <- true) blocks;
  let decoders =
    if verify then Array.map (fun im -> Hardware.Reprogram.decoder im.im_system) images
    else [||]
  in
  let verified = Array.make nimg 0 in
  let alts = Option.map (Array.map (Array.map (Option.map alt_runtime))) stateful in
  let mixed_totals = Array.make nimg 0 and tt_fetches = Array.make nimg 0 in
  let prev_data = Array.make nimg 0 and prev_aux = Array.make nimg 0 in
  let first = ref true in
  let on_fetch ~pc =
    let w = Array.unsafe_get words pc in
    (* the ring retains each event's word array, so it is fresh per fetch *)
    if Trace.Collector.enabled () then begin
      let enc = Array.map (fun im -> im.im_words.(pc)) images in
      let time = Trace.Collector.now () in
      Trace.Collector.emit (Trace.Event.Bus { time; pc; encoded = enc });
      if pc_is_start.(pc) then
        Trace.Collector.emit
          (Trace.Event.Block_entry { time; pc; block = pc_block.(pc) })
    end;
    Option.iter
      (fun alts ->
        for v = 0 to nimg - 1 do
          let im = images.(v) in
          let r = im.im_region_of_pc.(pc) in
          let data, aux =
            match if r >= 0 then alts.(v).(r) else None with
            | Some art ->
                art.art_fetches <- art.art_fetches + 1;
                let cw = art.art_step w in
                (cw.Buspower.Encoder.data, cw.Buspower.Encoder.aux)
            | None ->
                if r >= 0 then tt_fetches.(v) <- tt_fetches.(v) + 1;
                (im.im_words.(pc), prev_aux.(v))
          in
          if not !first then
            mixed_totals.(v) <-
              mixed_totals.(v)
              + popcount32 (data lxor prev_data.(v))
              + popcount32 (aux lxor prev_aux.(v));
          prev_data.(v) <- data;
          prev_aux.(v) <- aux
        done;
        first := false)
      alts;
    if verify then
      Array.iteri
        (fun v dec ->
          let _bus, decoded = Hardware.Fetch_decoder.fetch dec ~pc in
          if decoded <> w then
            raise (Verification_failed { pc; expected = w; got = decoded });
          verified.(v) <- verified.(v) + 1)
        decoders
  in
  let result = Machine.Cpu.run ~on_fetch program (Machine.Cpu.create_state ()) in
  if result.Machine.Cpu.instructions <> Cfg.Profile.total profile then
    failwith
      (Printf.sprintf "Pipeline.Evaluate: replay fetched %d instructions, profile %d"
         result.Machine.Cpu.instructions (Cfg.Profile.total profile));
  let mixed =
    Option.map
      (Array.mapi (fun v mx_alts ->
           { mx_transitions = mixed_totals.(v); mx_tt_fetches = tt_fetches.(v); mx_alts }))
      alts
  in
  (verified, mixed)

(* What the count stage hands to accounting, per image where an array. *)
type counted = {
  baseline : int;  (* baseline-image bus transitions *)
  totals : int array;
  region_fetches : int array;  (* fetches inside encoded regions *)
  meter : Ledger.Meter.t option;
  attr : Trace.Attribution.t option;
  verified : int array;  (* zeros without [verify] *)
  mixed : mixed array;
}

(* The count stage.  Each image's transitions, the ledger meter, the
   attribution tables and an all-TT mixed bus are sums over the profile's
   fetch edges; the replay runs only for the consumers [replay] names. *)
let count ~name ~ledger ~attribution ~verify ~picks program ctx images =
  let { profile; blocks; _ } = ctx in
  let words = Isa.Program.words program in
  let npc = Array.length words in
  let edges = Cfg.Profile.edges profile in
  let transitions w =
    Array.fold_left
      (fun acc (e : Cfg.Profile.edge) ->
        acc + (e.count * popcount32 (w.(e.src) lxor w.(e.dst))))
      0 edges
  in
  (* [f ~count ~src ~pc] for the run's first fetch (pc 0, no predecessor)
     and then once per fetch edge *)
  let iter_fetches f =
    if Cfg.Profile.total profile > 0 then f ~count:1 ~src:None ~pc:0;
    Array.iter
      (fun (e : Cfg.Profile.edge) -> f ~count:e.count ~src:(Some e.src) ~pc:e.dst)
      edges
  in
  let enc_at pc = Array.map (fun im -> im.im_words.(pc)) images in
  let in_region v pc = images.(v).im_region_of_pc.(pc) >= 0 in
  let meter =
    Option.map
      (fun model ->
        let m =
          Ledger.Meter.create ~name ~model
            ~ks:(Array.map (fun im -> im.im_k) images)
            ~encoded_region:(fun ~image ~pc -> in_region image pc)
        in
        iter_fetches (fun ~count ~src ~pc ->
            Ledger.Meter.record_edge m ~count
              ~src:(Option.map (fun s -> (s, words.(s), enc_at s)) src)
              ~pc ~baseline:words.(pc) ~encoded:(enc_at pc));
        m)
      ledger
  in
  let pc_block = Array.make npc (-1) in
  Array.iteri
    (fun bi (b : Cfg.Block.t) ->
      for pc = b.start to min (npc - 1) (b.start + b.len - 1) do
        pc_block.(pc) <- bi
      done)
    blocks;
  let attr =
    if not attribution then None
    else begin
      let a =
        Trace.Attribution.create
          ~labels:(Array.map (fun im -> "k" ^ string_of_int im.im_k) images)
          ~block_starts:(Array.map (fun (b : Cfg.Block.t) -> b.start) blocks)
          ~block_of_pc:(fun pc -> if pc >= 0 && pc < npc then pc_block.(pc) else -1)
      in
      iter_fetches (fun ~count ~src ~pc ->
          Trace.Attribution.record_edge a ~count
            ~src:(Option.map (fun s -> (words.(s), enc_at s)) src)
            ~pc ~baseline:words.(pc) ~encoded:(enc_at pc));
      Some a
    end
  in
  let totals = Array.map (fun im -> transitions im.im_words) images in
  let region_fetches =
    Array.mapi
      (fun v _ ->
        let n = ref 0 in
        for pc = 0 to npc - 1 do
          if in_region v pc then n := !n + Cfg.Profile.instruction_count profile pc
        done;
        !n)
      images
  in
  let stateful =
    match picks with
    | Some p when Array.exists (Array.exists Option.is_some) p -> Some p
    | _ -> None
  in
  let verified, replayed =
    if verify || Trace.Collector.enabled () || stateful <> None then
      replay program ~profile ~blocks ~pc_block ~verify ~stateful images
    else (Array.make (Array.length images) 0, None)
  in
  let mixed =
    match replayed with
    | Some mixed -> mixed
    | None ->
        (* every region stays TT: the mixed bus is the stored image *)
        Array.mapi
          (fun v im ->
            {
              mx_transitions = totals.(v);
              mx_tt_fetches = region_fetches.(v);
              mx_alts = Array.map (fun _ -> None) im.im_regions;
            })
          images
  in
  { baseline = transitions words; totals; region_fetches; meter; attr; verified; mixed }

(* Under [scheme] ([`Auto] or [`Fixed]), the committed selection of one
   image and its energy, against every region TT. *)
let scheme_run ~scheme ~scheme_alts ~model ~baseline ~tt_transitions
    ~region_fetches im (mx : mixed) =
  let fl = float_of_int in
  let per_t = Buspower.Energy.per_transition model.Ledger.Model.bus in
  let alt_read_j = ref 0.0 in
  Array.iter
    (function
      | Some art ->
          alt_read_j :=
            !alt_read_j
            +. (fl (art.art_fetches * art.art_reads_per_fetch)
               *. model.Ledger.Model.tt_read_j)
            +. (fl art.art_table_words *. model.Ledger.Model.table_write_j)
      | None -> ())
    mx.mx_alts;
  let tt_energy_j =
    (fl tt_transitions *. per_t)
    +. (fl region_fetches *. model.Ledger.Model.tt_read_j)
  in
  let auto_energy_j =
    (fl mx.mx_transitions *. per_t)
    +. (fl mx.mx_tt_fetches *. model.Ledger.Model.tt_read_j)
    +. !alt_read_j
  in
  (* Commit rule: an [`Auto] selection that measured worse than all-TT is
     discarded, so auto never reports higher energy than TT.  A [`Fixed]
     override is honoured as-is and reports honest (possibly worse)
     numbers. *)
  let reverted =
    (match scheme with `Auto -> true | `Tt | `Fixed _ -> false)
    && auto_energy_j > tt_energy_j
  in
  if Log.enabled () then
    Log.info "scheme.commit"
      [
        ("k", Log.Int im.im_k);
        ("auto_energy_j", Log.Float auto_energy_j);
        ("tt_energy_j", Log.Float tt_energy_j);
        ("reverted", Log.Bool reverted);
      ];
  let choice_of ri rg =
    let rc_scheme =
      if reverted then "tt"
      else match mx.mx_alts.(ri) with Some art -> art.art_scheme | None -> "tt"
    in
    { rc_start = rg.rg_start; rc_len = rg.rg_len; rc_weight = rg.rg_weight; rc_scheme }
  in
  let choices = Array.to_list (Array.mapi choice_of im.im_regions) in
  let counts =
    let tally s = List.length (List.filter (fun c -> String.equal c.rc_scheme s) choices) in
    let alt_list =
      match scheme_alts with `Choose alts -> alts | `Force b -> [ b ]
    in
    ("tt", tally "tt")
    :: List.filter_map
         (fun b ->
           let s = scheme_name b in
           match tally s with 0 -> None | n -> Some (s, n))
         alt_list
  in
  let auto_transitions = if reverted then tt_transitions else mx.mx_transitions in
  {
    srun_k = im.im_k;
    choices;
    scheme_counts = counts;
    auto_transitions;
    auto_reduction_pct = reduction_pct ~baseline auto_transitions;
    auto_energy_j = (if reverted then tt_energy_j else auto_energy_j);
    tt_energy_j;
    reverted;
  }

(* The account stage: runs, scheme runs and the priced ledger. *)
let account ~name ~scheme ~scheme_alts ~model ctx images (c : counted) =
  let { profile; hot_blocks; _ } = ctx in
  let baseline = c.baseline in
  let coverage_pct =
    if Array.length images = 0 then 0.0
    else
      let encoded (b : Cfg.Block.t) =
        Array.exists (fun rg -> rg.rg_start = b.start) images.(0).im_regions
      in
      100.0 *. Cfg.Profile.coverage profile (List.filter encoded hot_blocks)
  in
  let runs =
    Array.mapi
      (fun v im ->
        {
          k = im.im_k;
          transitions = c.totals.(v);
          reduction_pct = reduction_pct ~baseline c.totals.(v);
          tt_used = im.im_plan.Powercode.Program_encoder.tt_used;
          blocks_encoded = Array.length im.im_regions;
          verified_fetches = c.verified.(v);
        })
      images
  in
  let schemes =
    match scheme_alts with
    | None -> [||]
    | Some scheme_alts ->
        Array.mapi
          (fun v im ->
            scheme_run ~scheme ~scheme_alts ~model ~baseline
              ~tt_transitions:c.totals.(v) ~region_fetches:c.region_fetches.(v)
              im c.mixed.(v))
          images
  in
  let ledger =
    Option.map
      (fun m ->
        (* Conservation: the meter accumulates bus transitions independently
           of the edge sums above; any disagreement means one side is
           broken, and a ledger built on it would lie. *)
        if Ledger.Meter.baseline_transitions m <> baseline then
          failwith
            (Printf.sprintf
               "Pipeline.Evaluate: ledger baseline transitions %d <> counted %d"
               (Ledger.Meter.baseline_transitions m)
               baseline);
        Array.iteri
          (fun v total ->
            if Ledger.Meter.encoded_transitions m v <> total then
              failwith
                (Printf.sprintf
                   "Pipeline.Evaluate: ledger image %d transitions %d <> counted %d"
                   v
                   (Ledger.Meter.encoded_transitions m v)
                   total))
          c.totals;
        Ledger.Meter.finalize m
          ~reprogram_writes:
            (Array.map
               (fun im -> Hardware.Reprogram.programming_writes im.im_system)
               images))
      c.meter
  in
  {
    name;
    instructions = Cfg.Profile.total profile;
    baseline_transitions = baseline;
    businvert_transitions = Cfg.Profile.businvert_transitions profile;
    runs = Array.to_list runs;
    coverage_pct;
    output = Cfg.Profile.output profile;
    attribution = Option.map Trace.Attribution.summarize c.attr;
    ledger;
    schemes = Array.to_list schemes;
  }

let evaluate ?(ks = [ 4; 5; 6; 7 ]) ?(tt_capacity = 16) ?subset_mask
    ?(optimal_chain = false) ?(selection = `Hot_blocks) ?(scheme = `Tt)
    ?(verify = false) ?(attribution = false) ?ledger ~name program =
  Metrics.with_span Tel.span_evaluate @@ fun () ->
  Metrics.incr Tel.pipeline_evaluations;
  let words = Isa.Program.words program in
  (* [`Fixed "tt"] is [`Tt] spelled through the CLI flag; normalise before
     the plan-cache key so both share an entry *)
  let scheme = match scheme with `Fixed "tt" -> `Tt | s -> s in
  let scheme_alts = resolve_scheme scheme in
  let ctx, plans =
    context_and_plans ~ks ~tt_capacity ~subset_mask ~optimal_chain ~selection
      ~scheme program
  in
  let images =
    Array.of_list
      (List.map
         (image_of_prepared (Array.length words))
         (systems_of_plans ~tt_capacity ctx program plans))
  in
  (* scheme selection is scored against the ledger model when one is
     passed *)
  let model = Option.value ledger ~default:Ledger.Model.on_chip in
  let picks =
    Option.map (fun sel -> pick_schemes sel ~model ~words images) scheme_alts
  in
  let counted =
    Metrics.with_span Tel.span_count @@ fun () ->
    gc_phase gc_count_phase @@ fun () ->
    count ~name ~ledger ~attribution ~verify ~picks program ctx images
  in
  let instructions = Cfg.Profile.total ctx.profile in
  Metrics.add Tel.pipeline_fetches instructions;
  Metrics.add Tel.pipeline_images (Array.length images);
  if Log.enabled () then
    Log.info "pipeline.phase"
      [
        ("phase", Log.Str "count");
        ("instructions", Log.Int instructions);
        ("images", Log.Int (Array.length images));
      ];
  account ~name ~scheme ~scheme_alts ~model ctx images counted

let evaluate_workload ?ks ?scheme ?verify ?attribution ?ledger w =
  let compiled = Workloads.compile w in
  evaluate ?ks ?scheme ?verify ?attribution ?ledger ~name:w.Workloads.name
    compiled.Minic.Compile.program

let pp_report fmt r =
  Format.fprintf fmt "%-5s insns=%d coverage=%.1f%% TR=%d businvert=%d@."
    r.name r.instructions r.coverage_pct r.baseline_transitions
    r.businvert_transitions;
  List.iter
    (fun run ->
      Format.fprintf fmt
        "  k=%d: transitions=%d reduction=%.1f%% tt=%d blocks=%d@." run.k
        run.transitions run.reduction_pct run.tt_used run.blocks_encoded)
    r.runs;
  List.iter
    (fun s ->
      Format.fprintf fmt
        "  k=%d scheme: transitions=%d reduction=%.1f%% energy=%.4e J (tt \
         %.4e J)%s regions:%s@."
        s.srun_k s.auto_transitions s.auto_reduction_pct s.auto_energy_j
        s.tt_energy_j
        (if s.reverted then " [reverted to tt]" else "")
        (String.concat ""
           (List.map
              (fun (name, n) -> Printf.sprintf " %s=%d" name n)
              s.scheme_counts)))
    r.schemes;
  match r.ledger with
  | Some sheet -> Format.fprintf fmt "%a@." Ledger.Sheet.pp sheet
  | None -> ()
