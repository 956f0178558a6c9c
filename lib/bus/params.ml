type t = {
  beat_bytes : int;
  max_burst : int;
  addr_phase : int;
  read_latency : int;
  write_latency : int;
  mmio_write : int;
  mmio_read : int;
}

let default =
  { beat_bytes = 8; max_burst = 16; addr_phase = 1; read_latency = 20;
    write_latency = 4; mmio_write = 6; mmio_read = 12 }

let beats_for t bytes = Int.max 1 ((bytes + t.beat_bytes - 1) / t.beat_bytes)
