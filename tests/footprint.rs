//! Per-task memory footprint. The task table holds one `TaskRecord` per
//! request ever submitted, so at fleet scale (10⁶ requests) its record
//! size is most of the simulator's peak heap (DESIGN.md §10, item 6).
//! A field added inline grows every record; fields that only some tasks
//! carry belong behind the record's extra box.

use parfait_faas::TaskRecord;

#[test]
fn task_record_fits_in_128_bytes() {
    let size = std::mem::size_of::<TaskRecord>();
    assert!(size <= 128, "TaskRecord grew to {size} B (budget 128 B)");
}
