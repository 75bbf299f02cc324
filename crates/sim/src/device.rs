//! The testbed's machines.

use serde::{Deserialize, Serialize};

/// A machine in the testbed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceProfile {
    /// Human-readable name ("Raspberry Pi 3", …).
    pub name: String,
    /// How many detection jobs the machine can service simultaneously —
    /// the server count of this layer's queue in the fleet simulator
    /// (`crate::fleet`). The Pi runs one inference at a time; the shared
    /// edge/cloud servers each sustain several concurrent model instances.
    pub(crate) concurrency: usize,
}

impl DeviceProfile {
    /// The paper's IoT device.
    pub(crate) fn raspberry_pi3() -> Self {
        Self { name: "Raspberry Pi 3".into(), concurrency: 1 }
    }

    /// The paper's edge server.
    pub(crate) fn jetson_tx2() -> Self {
        Self { name: "NVIDIA Jetson TX2".into(), concurrency: 4 }
    }

    /// The paper's cloud server.
    pub(crate) fn devbox() -> Self {
        Self { name: "NVIDIA Devbox".into(), concurrency: 16 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn devices_get_faster_up_the_hierarchy() {
        let pi = DeviceProfile::raspberry_pi3();
        let tx2 = DeviceProfile::jetson_tx2();
        let devbox = DeviceProfile::devbox();
        assert!(pi.concurrency <= tx2.concurrency);
        assert!(tx2.concurrency <= devbox.concurrency);
        assert!(pi.concurrency >= 1);
    }
}
