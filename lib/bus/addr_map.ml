let dram_base = 0
let dram_size = 16 * 1024 * 1024
let heap_base = 1024 * 1024
let accel_ctrl_base = 0x1000_0000_0000
let accel_ctrl_stride = 0x1000
let capchecker_mmio_base = 0x2000_0000_0000

let ctrl_reg ~instance ~reg = accel_ctrl_base + (instance * accel_ctrl_stride) + (reg * 8)

let in_dram ~addr ~size =
  addr >= dram_base && size >= 0 && size <= dram_base + dram_size - addr
