type config = { lines : int; words_per_line : int }

type t = {
  config : config;
  image : int array;
  tags : int array;  (* -1 = invalid *)
  mutable accesses : int;
  mutable misses : int;
  mutable memory_words : int;
  mutable memory_transitions : int;
  mutable memory_prev : int;
  mutable memory_started : bool;
}

type stats = {
  accesses : int;
  misses : int;
  memory_words : int;
  memory_transitions : int;
}

let is_pow2 v = v > 0 && v land (v - 1) = 0

let create config ~image =
  if not (is_pow2 config.lines && is_pow2 config.words_per_line) then
    invalid_arg "Icache.create: geometry must be powers of two";
  {
    config;
    image;
    tags = Array.make config.lines (-1);
    accesses = 0;
    misses = 0;
    memory_words = 0;
    memory_transitions = 0;
    memory_prev = 0;
    memory_started = false;
  }

let stream_word (t : t) w =
  if t.memory_started then
    t.memory_transitions <-
      t.memory_transitions + Bitutil.Popcount.count (w lxor t.memory_prev);
  t.memory_prev <- w;
  t.memory_started <- true;
  t.memory_words <- t.memory_words + 1

let access (t : t) ~pc =
  if pc < 0 || pc >= Array.length t.image then
    raise
      (Fault.Fault
         (Fault.Image_out_of_range { pc; limit = Array.length t.image }));
  t.accesses <- t.accesses + 1;
  let line_addr = pc / t.config.words_per_line in
  let index = line_addr land (t.config.lines - 1) in
  let hit = t.tags.(index) = line_addr in
  if not hit then begin
    t.misses <- t.misses + 1;
    t.tags.(index) <- line_addr;
    let base = line_addr * t.config.words_per_line in
    let streamed = ref 0 in
    for i = 0 to t.config.words_per_line - 1 do
      let a = base + i in
      if a < Array.length t.image then begin
        stream_word t t.image.(a);
        incr streamed
      end
    done;
    Telemetry.Metrics.add Telemetry.Registry.icache_refill_words !streamed
  end;
  if Trace.Collector.enabled () then
    Trace.Collector.emit
      (Trace.Event.Icache { time = Trace.Collector.now (); pc; hit });
  if Telemetry.Metrics.enabled () then begin
    Telemetry.Metrics.incr Telemetry.Registry.icache_accesses;
    Telemetry.Metrics.incr
      (if hit then Telemetry.Registry.icache_hits
       else Telemetry.Registry.icache_misses)
  end;
  (t.image.(pc), hit)

let stats (t : t) =
  {
    accesses = t.accesses;
    misses = t.misses;
    memory_words = t.memory_words;
    memory_transitions = t.memory_transitions;
  }

let reset (t : t) =
  Array.fill t.tags 0 t.config.lines (-1);
  t.accesses <- 0;
  t.misses <- 0;
  t.memory_words <- 0;
  t.memory_transitions <- 0;
  t.memory_prev <- 0;
  t.memory_started <- false
