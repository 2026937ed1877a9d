"""`python -m dpglock`: the dpg-lock command line."""

import sys

from .study_cli import main

sys.exit(main())
