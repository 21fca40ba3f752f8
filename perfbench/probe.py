"""Host-speed probe for the benchmark.

    python3 probe.py CPU

Pinned to one CPU, it times a fixed pure-Python loop in CPU time every
50 ms and prints ``<unix time> <cpu seconds>`` per sample until it is
killed.  On a shared host the CPU time of fixed work rises and falls with
the host's speed, which is what the benchmark divides out.
"""

import os
import sys
import time


def main(cpu):
    os.sched_setaffinity(0, {cpu})
    while True:
        t = time.process_time()
        s = 0
        for i in range(20000):
            s += i * i % 7
        print(time.time(), time.process_time() - t, flush=True)
        time.sleep(0.05)


if __name__ == "__main__":
    main(int(sys.argv[1]))
