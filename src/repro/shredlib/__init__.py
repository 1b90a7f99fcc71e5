"""ShredLib: the user-level multi-shredding runtime (Section 4.2)."""

from repro.shredlib.api import ShredAPI
from repro.shredlib.log import ShredEvent, ShredLog
from repro.shredlib.pthreads import PthreadsAPI
from repro.shredlib.runtime import QueuePolicy, ShredRuntime
from repro.shredlib.scheduler import gang_scheduler
from repro.shredlib.shred import Shred, ShredState
from repro.shredlib.sync import (
    CriticalSection, ShredBarrier, ShredCondVar, ShredEventObject,
    ShredMutex, ShredRWLock, ShredSemaphore,
)
from repro.shredlib.tls import TlsKey
from repro.shredlib.win32 import Win32API

__all__ = [
    "ShredAPI", "ShredEvent", "ShredLog",
    "PthreadsAPI", "QueuePolicy", "ShredRuntime", "gang_scheduler",
    "Shred", "ShredState", "CriticalSection", "ShredBarrier",
    "ShredCondVar", "ShredEventObject", "ShredMutex", "ShredRWLock",
    "ShredSemaphore", "TlsKey", "Win32API",
]
